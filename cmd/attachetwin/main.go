// Command attachetwin drives the analytical twin (internal/twin): the
// closed-form model of the Attaché pipeline that predicts compression
// ratio, predictor accuracy, bandwidth savings, CID-collision
// occupancy, and tiered far-link traffic straight from a workload
// spec's moments — no simulation.
//
// Predict one point (microseconds, no engine):
//
//	go run ./cmd/attachetwin predict -scenario zipfian-hot-page
//	go run ./cmd/attachetwin predict -scenario tiered-hotset -tier-near 1024 -json
//
// Calibrate the twin against the simulator over the committed sweep
// (every preset scenario × engine configs) and check the committed
// tolerance bands — the same gate CI's twin-calibration job runs:
//
//	go run ./cmd/attachetwin calibrate
//	go run ./cmd/attachetwin calibrate -events 1200 -bands internal/twin/testdata/calibration.json
//
// calibrate exits 1 when any per-metric MAPE exceeds its band or any
// Pearson correlation drops below its floor.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"

	"attache/internal/core"
	"attache/internal/tier"
	"attache/internal/twin"
	"attache/internal/workload"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	var err error
	switch os.Args[1] {
	case "predict":
		err = runPredict(os.Args[2:])
	case "calibrate":
		err = runCalibrate(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "attachetwin: unknown subcommand %q\n\n", os.Args[1])
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "attachetwin:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintf(os.Stderr, `usage:
  attachetwin predict   -scenario NAME [-events N] [-seed N] [-shards N] [-cid N]
                        [-no-predictor] [-papr-only] [-tier-near N] [-json]
  attachetwin calibrate [-events N] [-bands FILE] [-json]

scenarios: %v
`, workload.Names())
}

func buildConfig(shards, cid int, noPred, paprOnly bool, tierNear int64, tiered bool) twin.Config {
	cfg := twin.Config{Shards: shards, CIDBits: cid, DisablePredictor: noPred}
	if paprOnly {
		p := core.DefaultOptions().Predictor
		p.EnableLiPR = false
		cfg.Predictor = p
	}
	if tiered {
		cfg.Tier = &tier.Config{NearLines: tierNear}
	}
	return cfg
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	scenario := fs.String("scenario", "", "preset scenario name (required)")
	events := fs.Int("events", 1200, "events per client")
	seed := fs.Int64("seed", 0x7717, "workload seed")
	shards := fs.Int("shards", 2, "engine shards (model is shard-invariant; recorded for parity)")
	cid := fs.Int("cid", 15, "CID width in bits [1,15]")
	noPred := fs.Bool("no-predictor", false, "model the BLEM-only engine")
	paprOnly := fs.Bool("papr-only", false, "disable LiPR (exercise the PaPR/GI accuracy regime)")
	tierNear := fs.Int64("tier-near", 0, "model a tiered lru backend with this near capacity in lines (0 = untiered)")
	asJSON := fs.Bool("json", false, "emit the prediction as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *scenario == "" {
		return fmt.Errorf("predict: -scenario is required (have %v)", workload.Names())
	}
	spec, err := workload.Preset(*scenario, *seed, *events)
	if err != nil {
		return err
	}
	cfg := buildConfig(*shards, *cid, *noPred, *paprOnly, *tierNear, *tierNear != 0)
	pred, err := twin.Evaluate(spec, cfg)
	if err != nil {
		return err
	}
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(pred)
	}
	fmt.Printf("scenario %s (seed %#x, %d events, cid %d)\n", *scenario, *seed, *events, *cid)
	fmt.Printf("  lines            %12.1f\n", pred.Lines)
	fmt.Printf("  compression      %12.4f\n", pred.CompressionRatio)
	fmt.Printf("  accuracy         %12.4f\n", pred.PredictorAccuracy)
	fmt.Printf("  bw savings       %12.4f\n", pred.BandwidthSavings)
	fmt.Printf("  reads/failed     %12.1f / %.1f\n", pred.Reads, pred.FailedReads)
	fmt.Printf("  writes           %12.1f\n", pred.Writes)
	fmt.Printf("  blocks r/w       %12.1f / %.1f\n", pred.BlocksRead, pred.BlocksWritten)
	fmt.Printf("  collisions       %12.2f\n", pred.Collisions)
	fmt.Printf("  ra occupancy     %12.2f\n", pred.RAOccupancy)
	if pred.Tier != nil {
		fmt.Printf("  near hit rate    %12.4f\n", pred.Tier.NearHitRate)
		fmt.Printf("  far reads/writes %12.1f / %.1f\n", pred.Tier.FarReads, pred.Tier.FarWrites)
		fmt.Printf("  far link bytes   %12.1f\n", pred.Tier.FarLinkBytes)
		fmt.Printf("  far latency ns   %12.1f\n", pred.Tier.FarLatencyNs)
	}
	return nil
}

func runCalibrate(args []string) error {
	fs := flag.NewFlagSet("calibrate", flag.ExitOnError)
	events := fs.Int("events", 1200, "events per client in every sweep point")
	bandsPath := fs.String("bands", "", "committed bands file to enforce (exit 1 on violation)")
	asJSON := fs.Bool("json", false, "emit observations and summary as JSON")
	if err := fs.Parse(args); err != nil {
		return err
	}
	ctx := context.Background()
	obs, err := twin.Calibrate(ctx, twin.DefaultSweep(*events))
	if err != nil {
		return err
	}
	sum := twin.Summarize(obs)
	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(struct {
			Observations []twin.Observation            `json:"observations"`
			Summary      map[string]twin.MetricSummary `json:"summary"`
		}{obs, sum}); err != nil {
			return err
		}
	} else {
		printCalibration(obs, sum)
	}
	if *bandsPath != "" {
		bands, err := twin.LoadBands(*bandsPath)
		if err != nil {
			return err
		}
		if errs := twin.CheckBands(sum, bands); len(errs) > 0 {
			for _, e := range errs {
				fmt.Fprintln(os.Stderr, "calibration violation:", e)
			}
			return fmt.Errorf("%d calibration violation(s)", len(errs))
		}
		fmt.Printf("bands OK (%s)\n", *bandsPath)
	}
	return nil
}

func printCalibration(obs []twin.Observation, sum map[string]twin.MetricSummary) {
	tw := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "point\tmetric\ttwin\tsim\trel err")
	for _, o := range obs {
		names := make([]string, 0, len(o.Sim))
		for k := range o.Sim {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, name := range names {
			t, s := o.Twin[name], o.Sim[name]
			denom := s
			if denom < 0 {
				denom = -denom
			}
			if denom < 1e-9 {
				denom = 1
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g\t%.3f\n", o.Label, name, t, s, abs(t-s)/denom)
		}
	}
	tw.Flush()
	fmt.Println()
	names := make([]string, 0, len(sum))
	for k := range sum {
		names = append(names, k)
	}
	sort.Strings(names)
	tw = tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tn\tMAPE\tPearson")
	for _, name := range names {
		s := sum[name]
		fmt.Fprintf(tw, "%s\t%d\t%.4f\t%.4f\n", name, s.N, s.MAPE, s.Pearson)
	}
	tw.Flush()
}

func abs(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
