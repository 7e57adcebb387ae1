// Experiment registry: maps the paper's table/figure ids to runners.

package experiments

// registry lists every reproduced artifact.
var registry = map[string]Runner{
	"fig5":   Fig5,
	"fig6":   Fig6,
	"fig7":   Fig7,
	"table1": Table1,
	"fig9":   Fig9,
	"fig10":  Fig10,
	"table2": Table2,
	"table3": Table3,
	"fig11":  Fig11,
	"fig12":  Fig12,
	"table4": Table4,
	"fig13":  Fig13,
	"fig14":  Fig14,

	// Beyond the paper's artifacts: transport batching, fault-injection
	// robustness, the pipelined read path (end to end and at the
	// transport), latency-budget liveness, the remote third tier and
	// hot-path scaling under concurrent guests.
	"transport":          TransportExp,
	"faults":             FaultsExp,
	"readpath":           ReadPathExp,
	"readpath-transport": ReadPathTransportExp,
	"liveness":           LivenessExp,
	"tier":               TierExp,
	"scaling":            ScalingExp,
}
