package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/zeroshot-db/zeroshot/internal/costmodel"
	"github.com/zeroshot-db/zeroshot/internal/encoding"
	"github.com/zeroshot-db/zeroshot/internal/experiments"
)

func TestScaleConfig(t *testing.T) {
	tests := []struct {
		name     string
		args     []string
		wantErr  bool
		wantDBs  int
		wantSeed int64
	}{
		{name: "default small", args: nil, wantDBs: experiments.SmallConfig().TrainDBs, wantSeed: 1},
		{name: "explicit small", args: []string{"-scale", "small"}, wantDBs: experiments.SmallConfig().TrainDBs, wantSeed: 1},
		{name: "full", args: []string{"-scale", "full"}, wantDBs: experiments.FullConfig().TrainDBs, wantSeed: 1},
		{name: "seed override", args: []string{"-seed", "42"}, wantDBs: experiments.SmallConfig().TrainDBs, wantSeed: 42},
		{name: "bad scale", args: []string{"-scale", "huge"}, wantErr: true},
		{name: "bad flag", args: []string{"-nope"}, wantErr: true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			fs := flag.NewFlagSet("test", flag.ContinueOnError)
			fs.SetOutput(os.NewFile(0, os.DevNull))
			cfg, err := scaleConfig(fs, tt.args)
			if tt.wantErr {
				if err == nil {
					t.Fatal("expected an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if cfg.TrainDBs != tt.wantDBs || cfg.Seed != tt.wantSeed {
				t.Fatalf("got TrainDBs=%d Seed=%d, want %d/%d", cfg.TrainDBs, cfg.Seed, tt.wantDBs, tt.wantSeed)
			}
		})
	}
}

func TestParseCard(t *testing.T) {
	tests := []struct {
		in      string
		want    encoding.CardSource
		wantErr bool
	}{
		{in: "estimated", want: encoding.CardEstimated},
		{in: "exact", want: encoding.CardExact},
		{in: "none", want: encoding.CardNone},
		{in: "bogus", wantErr: true},
		{in: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseCard(tt.in)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseCard(%q) accepted", tt.in)
			}
			continue
		}
		if err != nil || got != tt.want {
			t.Errorf("parseCard(%q) = (%v, %v), want %v", tt.in, got, err, tt.want)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	if err := run("no-such-command", nil); err != errUnknownCommand {
		t.Fatalf("unknown command returned %v, want errUnknownCommand", err)
	}
	// Commands must reject bad flags rather than fall through.
	for _, cmd := range []string{"train", "eval", "serve", "explain", "gendata"} {
		if err := run(cmd, []string{"-definitely-not-a-flag"}); err == nil {
			t.Errorf("%s accepted a bogus flag", cmd)
		}
	}
	// The rest of the surface too: every experiment row (and all) must
	// reject one while parsing, so before an environment is built — the
	// flag package's own error proves Prepare never ran — and so must
	// route and each bundle, advise, doctor and trace entry point.
	surface := [][]string{{"all"}, {"route"}, {"advise"}, {"doctor"}, {"doctor", "analyze"}, {"trace"},
		{"bundle", "build"}, {"bundle", "inspect"}, {"bundle", "push"}, {"bundle", "list"}, {"bundle", "rollback"}}
	for _, e := range experimentTable {
		surface = append(surface, []string{e.name})
	}
	for _, argv := range surface {
		args := append(append([]string{}, argv[1:]...), "-definitely-not-a-flag")
		if err := run(argv[0], args); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v accepted a bogus flag (err %v)", argv, err)
		}
	}
	// Knobs that were deleted stay deleted.
	for _, argv := range [][]string{{"serve", "-batch-max", "8"}, {"route", "-max-attempts", "1"}} {
		if err := run(argv[0], argv[1:]); err == nil || !strings.Contains(err.Error(), "flag provided but not defined") {
			t.Errorf("%v accepted a deleted flag (err %v)", argv, err)
		}
	}
	if err := run("explain", nil); err == nil {
		t.Error("explain without -sql should fail")
	}
	if err := run("serve", nil); err == nil {
		t.Error("serve without -models should fail")
	}
	if err := run("train", []string{"-estimator", "nope", "-out", filepath.Join(t.TempDir(), "m.gob")}); err == nil {
		t.Error("train accepted an unknown estimator")
	}
	if err := run("train", []string{"-card", "nope"}); err == nil {
		t.Error("train accepted an unknown cardinality source")
	}
}

func TestRunGendata(t *testing.T) {
	if err := run("gendata", []string{"-seed", "3"}); err != nil {
		t.Fatal(err)
	}
}

// TestTrainEvalRoundTrip drives the CLI end to end with the cheapest
// registry estimator: train writes a self-describing model file, eval
// reconstructs it from the header alone.
func TestTrainEvalRoundTrip(t *testing.T) {
	out := filepath.Join(t.TempDir(), "sc.gob")
	if err := run("train", []string{
		"-estimator", costmodel.NameScaledCost,
		"-dbs", "1", "-queries", "40", "-out", out,
	}); err != nil {
		t.Fatal(err)
	}
	est, err := loadModelFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if est.Name() != costmodel.NameScaledCost {
		t.Fatalf("loaded %q, want %q", est.Name(), costmodel.NameScaledCost)
	}
	if err := run("eval", []string{"-model", out, "-queries", "25", "-dbscale", "0.08"}); err != nil {
		t.Fatal(err)
	}
}
