package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"strings"
	"time"

	"github.com/zeroshot-db/zeroshot/internal/bundle"
	"github.com/zeroshot-db/zeroshot/internal/obs/doctor"
)

// runDoctor dispatches the zsdb doctor subcommands. The bare form
// collects a support bundle from one or more running servers and runs
// the analyzers on it; `doctor analyze` re-runs the same analyzers
// offline against a saved bundle — the diagnosis is a pure function of
// the archive, so both paths print the same verdict for the same data.
func runDoctor(args []string) error {
	if len(args) > 0 && args[0] == "analyze" {
		return runDoctorAnalyze(args[1:])
	}
	return runDoctorCollect(args)
}

// runDoctorCollect snapshots every diagnostic endpoint of each target
// into one support bundle, optionally archives it, and prints the
// analyzer verdict table. Unreachable endpoints are recorded, not
// fatal — "the server is down" is itself a finding.
func runDoctorCollect(args []string) error {
	fs := flag.NewFlagSet("doctor", flag.ContinueOnError)
	addrs := fs.String("addr", "http://localhost:8080", "comma-separated server base URLs to diagnose")
	names := fs.String("names", "", "comma-separated target names aligned with -addr (default: the URLs)")
	out := fs.String("o", "", "also write the collected support bundle to this .tgz path")
	timeout := fs.Duration("timeout", 10*time.Second, "per-request collection timeout")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var targets []doctor.Target
	for _, u := range strings.Split(*addrs, ",") {
		if u = strings.TrimSpace(u); u != "" {
			targets = append(targets, doctor.Target{Name: u, BaseURL: u})
		}
	}
	if *names != "" {
		nameList := strings.Split(*names, ",")
		if len(nameList) != len(targets) {
			return fmt.Errorf("doctor: -names has %d entries for %d targets", len(nameList), len(targets))
		}
		for i, n := range nameList {
			targets[i].Name = strings.TrimSpace(n)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout*time.Duration(1+len(targets)*len(doctor.Endpoints)))
	defer cancel()
	b, err := doctor.Collect(ctx, &http.Client{Timeout: *timeout}, targets)
	if err != nil {
		return err
	}
	if *out != "" {
		if err := bundle.WriteFile(*out, func(w io.Writer) error { return doctor.WriteArchive(w, b) }); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote support bundle to %s\n", *out)
	}
	return renderDiagnosis(b)
}

// runDoctorAnalyze re-runs the analyzers against a saved support
// bundle — offline triage of an archive someone else collected.
func runDoctorAnalyze(args []string) error {
	fs := flag.NewFlagSet("doctor analyze", flag.ContinueOnError)
	path := fs.String("bundle", "", "support bundle archive to analyze (required)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *path == "" {
		return fmt.Errorf("doctor analyze: -bundle is required")
	}
	f, err := os.Open(*path)
	if err != nil {
		return err
	}
	defer f.Close()
	b, err := doctor.ReadArchive(f)
	if err != nil {
		return fmt.Errorf("doctor analyze: %s: %w", *path, err)
	}
	return renderDiagnosis(b)
}

// renderDiagnosis runs the analyzers, prints the verdict table, and
// maps a fail verdict onto a non-zero exit so scripts can gate on it.
func renderDiagnosis(b *doctor.Bundle) error {
	findings := doctor.AnalyzeAll(b)
	fmt.Print(doctor.RenderTable(findings))
	if doctor.Verdict(findings) == doctor.Fail {
		return fmt.Errorf("doctor: diagnosis failed (see findings above)")
	}
	return nil
}
