package algo

// init registers the full roster in the canonical display order: the
// Octopus core family, then the baselines, then the hybrid and bound
// entries. Adding an algorithm means implementing Algorithm in one
// file and appending a Register call here — every CLI, experiment runner,
// and the differential verification suite picks it up from the registry.
func init() {
	Register(octopusAlgo())
	Register(octopusGAlgo())
	Register(octopusBAlgo())
	Register(octopusEAlgo())
	Register(chainedAlgo())
	Register(octopusPlusAlgo())
	Register(octopusRandomAlgo())
	Register(octopusRedundantAlgo())
	Register(octopusShardedAlgo())
	Register(eclipseAlgo{})
	Register(eclipseBasedAlgo())
	Register(eclipsePPAlgo{})
	Register(rotornetAlgo())
	Register(hybridAlgo{})
	Register(ubAlgo{})
}
