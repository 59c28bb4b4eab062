// Command wsnbench regenerates the paper's evaluation: Tables 1-5 of
// Section 4 plus the ablation tables for the design choices the paper
// argues in prose. Every table prints the measured values next to the
// values the paper reports.
//
// Usage:
//
//	wsnbench             # all tables, ablations and extensions
//	wsnbench -table 3    # just Table 3
//	wsnbench -ablations  # just the ablations (A1-A4)
//	wsnbench -extensions # just the extensions (E1-E3)
//
// The -scale mode instead runs one large-grid broadcast through the
// implicit-adjacency engine and reports wall time and memory — the
// quick way to measure a mesh size on the current machine:
//
//	wsnbench -scale -kind 2D-8 -m 1024 -n 1024            # million nodes
//	wsnbench -scale -kind 3D-6 -m 128 -n 128 -l 128
package main

import (
	"flag"
	"fmt"
	"os"

	"wsnbcast/internal/experiments"
	"wsnbcast/internal/profiling"
	"wsnbcast/internal/table"
)

func main() {
	tableN := flag.Int("table", 0, "print only table N (1-5); 0 means all")
	ablations := flag.Bool("ablations", false, "print only the ablation tables")
	extensions := flag.Bool("extensions", false, "print only the extension tables (E1-E7)")
	markdown := flag.Bool("markdown", false, "emit GitHub-flavored Markdown instead of ASCII boxes")
	workers := flag.Int("workers", 0, "sweep worker pool size (0 = GOMAXPROCS); tables are identical for every value")
	scale := flag.Bool("scale", false, "run one large-grid broadcast instead of the tables")
	kind := flag.String("kind", "2D-8", "-scale: topology kind (2D-3, 2D-4, 2D-8, 3D-6)")
	mDim := flag.Int("m", 1024, "-scale: mesh width")
	nDim := flag.Int("n", 1024, "-scale: mesh height")
	lDim := flag.Int("l", 1, "-scale: mesh depth (3D-6 only)")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profiling.Start(*cpuprofile, *memprofile)
	if err != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", err)
		os.Exit(1)
	}
	var runErr error
	if *scale {
		runErr = runScale(*kind, *mDim, *nDim, *lDim)
	} else {
		runErr = run(*tableN, *ablations, *extensions, *markdown, *workers)
	}
	if err := stopProfiles(); err != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", err)
	}
	if runErr != nil {
		fmt.Fprintln(os.Stderr, "wsnbench:", runErr)
		os.Exit(1)
	}
}

func run(tableN int, ablationsOnly, extensionsOnly, markdown bool, workers int) error {
	if workers < 0 {
		return fmt.Errorf("invalid -workers %d: must be >= 0 (0 means GOMAXPROCS)", workers)
	}
	cfg := experiments.Config{Workers: workers}
	emit := func(t *table.Table) error {
		if markdown {
			if _, err := fmt.Print(t.Markdown()); err != nil {
				return err
			}
			fmt.Println()
			return nil
		}
		if err := t.Render(os.Stdout); err != nil {
			return err
		}
		fmt.Println()
		return nil
	}

	if ablationsOnly {
		tabs, err := experiments.AllAblations(cfg)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}
	if extensionsOnly {
		tabs, err := experiments.AllExtensions(cfg)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	}

	switch tableN {
	case 0:
		tabs, err := experiments.AllTables(cfg)
		if err != nil {
			return err
		}
		for _, t := range tabs {
			if err := emit(t); err != nil {
				return err
			}
		}
		abl, err := experiments.AllAblations(cfg)
		if err != nil {
			return err
		}
		for _, t := range abl {
			if err := emit(t); err != nil {
				return err
			}
		}
		ext, err := experiments.AllExtensions(cfg)
		if err != nil {
			return err
		}
		for _, t := range ext {
			if err := emit(t); err != nil {
				return err
			}
		}
		return nil
	case 1:
		return emit(experiments.Table1())
	case 2:
		return emit(experiments.Table2(cfg))
	case 3:
		t, err := experiments.Table3(cfg)
		if err != nil {
			return err
		}
		return emit(t)
	case 4:
		t, err := experiments.Table4(cfg)
		if err != nil {
			return err
		}
		return emit(t)
	case 5:
		t, err := experiments.Table5(cfg)
		if err != nil {
			return err
		}
		return emit(t)
	default:
		return fmt.Errorf("no table %d (the paper has tables 1-5)", tableN)
	}
}
