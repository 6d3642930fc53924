package experiments

import "fmt"

// experiment is one registered table: its id, whether it belongs to the
// paper's own evaluation (rather than an ablation or an extension), and
// the runner that renders it.
type experiment struct {
	id    string
	paper bool
	run   func(Options) *Table
}

// static adapts a fixed table, which takes no options, to a runner.
func static(tbl func() *Table) func(Options) *Table {
	return func(Options) *Table { return tbl() }
}

// registry is the one list of experiments, in the order latr-bench runs
// and lists them: the paper's tables, figures and case studies, then the
// ablations and extensions.
var registry = []experiment{
	{"table1", true, static(Table1)},
	{"table2", true, static(Table2)},
	{"table3", true, static(Table3)},
	{"fig6", true, Fig6},
	{"fig7", true, Fig7},
	{"fig8", true, Fig8},
	{"fig9", true, Fig9},
	{"fig10", true, Fig10},
	{"fig11", true, Fig11},
	{"fig12", true, Fig12},
	{"table4", true, Table4},
	{"table5", true, Table5},
	{"mem", true, MemOverhead},
	{"ipi", true, IPITable},
	{"remote", true, RemoteMemory},
	{"abl-depth", false, AblationQueueDepth},
	{"abl-sweep", false, AblationSweepTriggers},
	{"abl-delay", false, AblationReclaimDelay},
	{"abl-transport", false, AblationTransport},
	{"abl-variants", false, AblationPCIDAndTickless},
	{"abl-thp", false, AblationTHP},
	{"cluster", false, Cluster},
	{"virt", false, Virt},
	{"ptrepl", false, Ptrepl},
	{"tune", false, Tune},
}

// IDs lists every experiment id in registry order.
func IDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// PaperIDs lists the paper's own tables, figures and case studies in
// paper order, without the ablations and extensions.
func PaperIDs() []string {
	var ids []string
	for _, e := range registry {
		if e.paper {
			ids = append(ids, e.id)
		}
	}
	return ids
}

// ByID renders one experiment's table.
func ByID(id string, o Options) (*Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(o), nil
		}
	}
	return nil, fmt.Errorf("experiments: unknown experiment %q", id)
}
