// Command tracegen emits the synthetic datasets as files: head-motion
// traces, bandwidth traces (Belgian-4G-like or Irish-5G-like) as CSV, and
// video manifests in their binary wire form (the MsgManifest body that
// video.ReadManifest decodes).
//
// Usage:
//
//	tracegen -kind head -motion high -seed 3 -out user3.csv
//	tracegen -kind bandwidth -profile belgian -seed 7 -out bw7.csv
//	tracegen -kind manifest -video v8 -out v8.manifest
//	tracegen -kind import -in belgian_log.txt -bytes -out bw.csv
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"dragonfly/internal/trace"
	"dragonfly/internal/video"
)

func main() {
	kind := flag.String("kind", "head", "what to generate: head, bandwidth, manifest")
	out := flag.String("out", "", "output file (default stdout)")
	seed := flag.Int64("seed", 1, "generator seed")
	duration := flag.Duration("duration", time.Minute, "trace duration")

	motion := flag.String("motion", "medium", "head: motion class (low, medium, high)")
	profile := flag.String("profile", "belgian", "bandwidth: profile (belgian, irish)")
	filtered := flag.Bool("filtered", true, "bandwidth: apply the paper's filter and 28 Mbps cap")
	videoID := flag.String("video", "v1", "manifest: Table 3 video ID")

	inFile := flag.String("in", "", "import: raw throughput log to convert")
	tsCol := flag.Int("ts-col", 0, "import: timestamp column (epoch ms)")
	valCol := flag.Int("val-col", 1, "import: value column")
	asBytes := flag.Bool("bytes", false, "import: value column is bytes per interval (default: kbps)")
	comma := flag.Bool("comma", false, "import: comma-separated columns")
	flag.Parse()

	w := os.Stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		w = f
	}

	switch *kind {
	case "head":
		class := trace.MotionMedium
		switch *motion {
		case "low":
			class = trace.MotionLow
		case "high":
			class = trace.MotionHigh
		case "medium":
		default:
			log.Fatalf("unknown motion class %q", *motion)
		}
		h := trace.GenerateHead(trace.HeadGenParams{
			UserID: fmt.Sprintf("gen-%d", *seed), Class: class, Duration: *duration, Seed: *seed,
		})
		if err := trace.WriteHeadCSV(w, h); err != nil {
			log.Fatal(err)
		}

	case "bandwidth":
		var p trace.BandwidthGenParams
		var filter trace.FilterOptions
		switch *profile {
		case "belgian":
			p = trace.BandwidthGenParams{
				ID: fmt.Sprintf("belgian-%d", *seed), Seed: *seed, Duration: *duration,
				StateMeansMbps: []float64{9, 13, 18, 24}, SwitchPerSec: 0.25, NoiseFrac: 0.15,
			}
			filter = trace.DefaultBelgianFilter
		case "irish":
			p = trace.BandwidthGenParams{
				ID: fmt.Sprintf("irish-%d", *seed), Seed: *seed, Duration: *duration,
				StateMeansMbps: []float64{14, 20, 26}, SwitchPerSec: 0.12, NoiseFrac: 0.10,
				DipPerSec: 0.06, DipLen: 1500 * time.Millisecond,
			}
			filter = trace.DefaultIrishFilter
		default:
			log.Fatalf("unknown profile %q", *profile)
		}
		tr := trace.GenerateBandwidth(p)
		if *filtered {
			kept := trace.Filter([]*trace.BandwidthTrace{tr}, filter)
			if len(kept) == 0 {
				log.Fatalf("seed %d does not survive the paper's filter; try another seed or -filtered=false", *seed)
			}
			tr = kept[0]
		}
		if err := trace.WriteBandwidthCSV(w, tr); err != nil {
			log.Fatal(err)
		}

	case "manifest":
		var entry *video.DatasetEntry
		for i := range video.Table3 {
			if video.Table3[i].ID == *videoID {
				entry = &video.Table3[i]
			}
		}
		if entry == nil {
			log.Fatalf("unknown video %q (Table 3 has v1 v2 v7 v8 v14 v28 v27)", *videoID)
		}
		m := video.Generate(video.GenParams{
			ID: entry.ID, TargetQP42Mbps: entry.QP42Mbps, TargetQP22Mbps: entry.QP22Mbps,
			MotionLevel: entry.MotionLevel, Seed: entry.Seed,
			NumChunks: int(duration.Seconds()),
		})
		if _, err := m.WriteTo(w); err != nil {
			log.Fatal(err)
		}

	case "import":
		if *inFile == "" {
			log.Fatal("import requires -in")
		}
		f, err := os.Open(*inFile)
		if err != nil {
			log.Fatal(err)
		}
		tr, err := trace.ReadIntervalLog(f, trace.IntervalLogOptions{
			TimestampCol: *tsCol,
			ValueCol:     *valCol,
			ValueIsBytes: *asBytes,
			Comma:        *comma,
			ID:           *inFile,
		})
		f.Close()
		if err != nil {
			log.Fatal(err)
		}
		if err := trace.WriteBandwidthCSV(w, tr); err != nil {
			log.Fatal(err)
		}

	default:
		log.Fatalf("unknown kind %q", *kind)
	}
}
