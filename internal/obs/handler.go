package obs

import (
	"expvar"
	"fmt"
	"net/http"
	"net/http/pprof"
)

// Handler returns an http.Handler exposing the registry for live
// introspection of a running scheduler:
//
//	/metrics         Prometheus text exposition of the registry
//	/debug/vars      expvar-style JSON: every published expvar (cmdline,
//	                 memstats, ...) plus the registry under "octopus"
//	/debug/pprof/*   the standard net/http/pprof endpoints
//
// mhsd's API server (internal/daemon) mounts this handler; tests mount it
// on an httptest server.
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := r.WritePrometheus(w); err != nil {
			// Too late for an HTTP error status; the broken connection is
			// the client's signal.
			return
		}
	})
	mux.HandleFunc("/debug/vars", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		fmt.Fprintf(w, "{\n")
		first := true
		expvar.Do(func(kv expvar.KeyValue) {
			if !first {
				fmt.Fprintf(w, ",\n")
			}
			first = false
			fmt.Fprintf(w, "%q: %s", kv.Key, kv.Value)
		})
		if !first {
			fmt.Fprintf(w, ",\n")
		}
		fmt.Fprintf(w, "%q: ", "octopus")
		r.WriteVars(w)
		fmt.Fprintf(w, "\n}\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}
