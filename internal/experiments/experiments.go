// Package experiments regenerates every table and figure of the paper's
// evaluation from the models: each experiment returns a report.Table whose
// rows mirror what the paper prints, so cmd/experiments and the root
// benchmarks can reproduce the full evaluation section. EXPERIMENTS.md
// records the paper-vs-measured comparison for each.
package experiments

import (
	"context"
	"fmt"

	"backuppower/internal/core"
	"backuppower/internal/report"
	"backuppower/internal/sweep"
)

// DefaultServers is the simulated fleet size. The metrics reported are
// all normalized (cost to MaxPerf, perf to full service), so the fleet
// size only sets absolute watt numbers.
const DefaultServers = 16

// Experiment is one regenerable table or figure. Run receives the context
// that carries cancellation and the sweep pool width: every scenario
// fan-out beneath it (variant races, rating sweeps, Monte-Carlo years)
// routes through internal/sweep and honors both.
type Experiment struct {
	ID    string // e.g. "fig5", "table3", "ablation-peukert"
	Title string
	Run   func(context.Context) report.Table
}

// Registry lists every experiment in paper order, followed by the
// ablations DESIGN.md calls out.
func Registry() []Experiment {
	return []Experiment{
		{"fig1", "Figure 1: power outage distributions (US businesses)", Fig1},
		{"fig3", "Figure 3: battery runtime vs load (4 KW pack)", Fig3},
		{"table1", "Table 1: DG and UPS cost parameters", Table1},
		{"table2", "Table 2: backup infrastructure cost vs capacity", Table2},
		{"table3", "Table 3: underprovisioning configurations", Table3},
		{"table4", "Table 4: technique operational phases", Table4},
		{"table5", "Table 5: technique impact on backup capacity", Table5},
		{"table6", "Table 6: hybrid techniques", Table6},
		{"fig5", "Figure 5: configuration trade-offs (SPECjbb)", Fig5},
		{"fig6", "Figure 6: technique trade-offs vs outage duration (SPECjbb)", Fig6},
		{"table8", "Table 8: save/resume times (SPECjbb)", Table8},
		{"memsize", "Section 6.2: SPECjbb memory-usage sensitivity", MemSize},
		{"fig7", "Figure 7: technique trade-offs (Memcached)", Fig7},
		{"fig8", "Figure 8: technique trade-offs (Web-search)", Fig8},
		{"fig9", "Figure 9: technique trade-offs (SpecCPU mcf×8)", Fig9},
		{"fig10", "Figure 10: TCO cross-over (Google 2011)", Fig10},
		{"ablation-peukert", "Ablation: Peukert vs linear battery model", AblationPeukert},
		{"ablation-proactive", "Ablation: proactive flush interval", AblationProactiveInterval},
		{"ablation-consolidation", "Ablation: consolidation factor", AblationConsolidation},
		{"ablation-dgstartup", "Ablation: DG start-up delay sensitivity", AblationDGStartup},
		{"ablation-liion", "Ablation: Li-ion vs lead-acid economics", AblationLiIon},
		{"ext-availability", "Extension: yearly availability Monte-Carlo", ExtAvailability},
		{"ext-nvdimm", "Extension: NVDIMM persistence (§7)", ExtNVDIMM},
		{"ext-geo", "Extension: geo-failover for very long outages (§7)", ExtGeoFailover},
		{"ext-barelyalive", "Extension: RDMA over sleep (§7)", ExtBarelyAlive},
		{"ext-liion-sizing", "Extension: technique sizing under Li-ion (§7)", ExtLiIonSizing},
		{"ext-placement", "Extension: UPS placement / free-runtime sensitivity", ExtPlacement},
		{"ext-checkpoint", "Extension: HPC checkpoint interval vs crash downtime", ExtCheckpoint},
		{"ext-diurnal", "Extension: diurnal load vs steady peak availability", ExtDiurnal},
		{"ext-portfolio", "Extension: heterogeneous portfolio design (§7)", ExtPortfolio},
		{"ext-opex", "Extension: DG op-ex vs cap-ex check", ExtOpEx},
		{"ext-policy", "Extension: adaptive policy vs duration oracle (§7)", ExtPolicy},
		{"ext-wear", "Extension: battery wear — backup vs peak-shaving duty", ExtWear},
		{"ext-upstopology", "Extension: online vs offline UPS economics", ExtUPSTopology},
		{"ablation-proportionality", "Ablation: energy proportionality vs migration advantage", Proportionality},
		{"ext-geofleet", "Extension: geo-replicated fleet failover (§7)", ExtGeoFleet},
	}
}

// ByID finds an experiment.
func ByID(id string) (Experiment, bool) {
	for _, e := range Registry() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// RunAll regenerates the given experiments through the sweep engine and
// returns their tables in input order — the parallel equivalent of calling
// each Run in sequence, with byte-identical output. The error is non-nil
// only on context cancellation.
func RunAll(ctx context.Context, reg []Experiment) ([]report.Table, error) {
	return sweep.Map(ctx, reg, func(ctx context.Context, e Experiment) (report.Table, error) {
		if err := ctx.Err(); err != nil {
			return report.Table{}, err
		}
		return e.Run(ctx), nil
	})
}

// framework returns the shared evaluation framework.
func framework() *core.Framework { return core.New(DefaultServers) }

func pct(f float64) string { return fmt.Sprintf("%.0f%%", f*100) }
