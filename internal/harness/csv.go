package harness

import (
	"encoding/csv"
	"fmt"
	"io"
)

// CSV writers for the experiment artifacts, so results can be archived and
// plotted outside the harness (qectab's -csv flag).

// WriteRowsCSV writes Table Ia/Ib rows as CSV.
func WriteRowsCSV(w io.Writer, rows []Row) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{
		"benchmark", "n", "gates_g", "gates_gp",
		"ec_verdict", "t_ec_seconds", "ec_timed_out",
		"num_sims", "t_sim_seconds", "sim_detected",
		"want_equivalent", "injection",
		"ec_gate_hit_rate", "sim_gate_hit_rate",
		"ec_compute_hit_rate", "sim_compute_hit_rate",
		"sim_kernel_applies", "sim_kernel_hit_rate",
		"gc_reclaimed", "pressure_gcs",
	}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Name,
			fmt.Sprint(r.N), fmt.Sprint(r.SizeG), fmt.Sprint(r.SizeGp),
			r.ECVerdict.String(), fmt.Sprintf("%.6f", r.TEC.Seconds()), fmt.Sprint(r.ECTimedOut),
			fmt.Sprint(r.NumSims), fmt.Sprintf("%.6f", r.TSim.Seconds()), fmt.Sprint(r.SimDetected),
			fmt.Sprint(r.WantEquivalent), r.Injection,
			fmt.Sprintf("%.4f", r.ECDD.GateHitRate()),
			fmt.Sprintf("%.4f", r.SimDD.GateHitRate()),
			fmt.Sprintf("%.4f", r.ECDD.ComputeHitRate()),
			fmt.Sprintf("%.4f", r.SimDD.ComputeHitRate()),
			fmt.Sprint(r.SimDD.ApplyCalls),
			fmt.Sprintf("%.4f", r.SimDD.ApplyHitRate()),
			fmt.Sprint(r.ECDD.GCReclaimed + r.SimDD.GCReclaimed),
			fmt.Sprint(r.ECDD.PressureGCs + r.SimDD.PressureGCs),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteTheoryCSV writes the Sec. IV-A experiment as CSV.
func WriteTheoryCSV(w io.Writer, rows []TheoryRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"controls", "predicted", "measured"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			fmt.Sprint(r.Controls),
			fmt.Sprintf("%.9f", r.Predicted),
			fmt.Sprintf("%.9f", r.Measured),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

// WriteStrategyCSV writes the strategy ablation as CSV.
func WriteStrategyCSV(w io.Writer, rows []StrategyRow) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"benchmark", "strategy", "verdict", "t_seconds", "peak_nodes"}); err != nil {
		return err
	}
	for _, r := range rows {
		if err := cw.Write([]string{
			r.Name, r.Strategy.String(), r.Verdict.String(),
			fmt.Sprintf("%.6f", r.Runtime.Seconds()), fmt.Sprint(r.PeakNodes),
		}); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
