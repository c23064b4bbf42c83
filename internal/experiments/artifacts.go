package experiments

// Artifact is one table, figure or ablation of the evaluation: its name and
// the function that renders it (quick selects the reduced problem sizes of
// the same shapes).
type Artifact struct {
	Name string
	Run  func(quick bool) string
}

// Artifacts is the whole evaluation in report order — what smappic-bench
// -exp all prints and what the root paper-evaluation golden pins.
var Artifacts = []Artifact{
	{"table1", func(bool) string { return Table1() }},
	{"table2", func(bool) string { return Table2() }},
	{"table3", func(bool) string { return Table3() }},
	{"table4", func(bool) string { return Table4() }},
	{"fig7", func(q bool) string {
		r := Fig7(q)
		return r.String() + "\n\nHeatmap (cycles):\n" + r.Heatmap
	}},
	{"fig8", func(q bool) string { return Fig8(q).String() }},
	{"fig9", func(q bool) string { return Fig9(q).String() }},
	{"fig10", func(q bool) string { return Fig10(q).String() }},
	{"fig11", func(q bool) string { return Fig11(q).String() }},
	{"fig12", func(bool) string { return Fig12().String() }},
	{"fig13", func(bool) string { return Fig13().String() }},
	{"fig14", func(bool) string { return Fig14().String() }},
	{"ablation-homing", func(bool) string { return AblationHoming().String() }},
	{"ablation-credits", func(bool) string { return AblationCredits().String() }},
	{"ablation-interconnect", func(bool) string { return AblationInterconnect().String() }},
	{"ablation-core", func(bool) string { return AblationCore().String() }},
	{"ablation-faults", func(bool) string { return AblationFaultTolerance().String() }},
}
