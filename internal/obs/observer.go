package obs

// Observer bundles the two sinks the instrumented layers accept: a metrics
// Registry and a decision-trace Tracer. Either (or both) may be nil.
//
// The nil *Observer is the no-op default: every accessor returns a nil
// instrument whose methods do nothing, so code holding pre-bound
// instruments pays one nil check per event when observability is off. The
// scheduler layers (core, online, simulate) carry an *Observer in their
// Options; entry points construct one only when a metrics or trace flag is
// set.
type Observer struct {
	Metrics *Registry
	Trace   *Tracer
}

// Enabled reports whether any sink is attached.
func (o *Observer) Enabled() bool {
	return o != nil && (o.Metrics != nil || o.Trace != nil)
}

// Counter returns the named counter, nil when metrics are off.
func (o *Observer) Counter(name string) *Counter {
	if o == nil {
		return nil
	}
	return o.Metrics.Counter(name)
}

// Gauge returns the named gauge, nil when metrics are off.
func (o *Observer) Gauge(name string) *Gauge {
	if o == nil {
		return nil
	}
	return o.Metrics.Gauge(name)
}

// Histogram returns the named histogram, nil when metrics are off.
func (o *Observer) Histogram(name string) *Histogram {
	if o == nil {
		return nil
	}
	return o.Metrics.Histogram(name)
}

// Tracer returns the decision tracer, nil when tracing is off.
func (o *Observer) Tracer() *Tracer {
	if o == nil {
		return nil
	}
	return o.Trace
}
