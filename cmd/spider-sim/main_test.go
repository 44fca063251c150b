package main

import (
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Pinned export hashes. Each is what spider-sim writes for the
// invocation below; a change to any of them is a change to what the
// CLI simulates or how it serializes, and must be deliberate. The
// citygrid hash is the same at every -shards value.
const (
	driveArchive    = "b724fd1d62f98245732d2ac55bbb201cb5e5eb909b249d48cf4eedd28a66ea30"
	repsArchive     = "d508a840cfa88bfafe9cb1285bceaaec66ecc7d674cf2536f25a6f456d08ab5d"
	cityArchive     = "f0749b994be32fecc77fee5f5ed42511cfd3eb503bd3a988172d338298872772"
	staggerArchive  = "eb287bc304abf5c48f133ed08b5505e2c479acbc87f205aaf8433a080ed5e0b6"
	cityMetricsProm = "d478578b35d59761a2e810123ae4447e1acbca8c7acfc37ca90fdcb83891e9df"
	cityTraceJSONL  = "ec8f4e7a6a2a6d5247dbc2f87eda2f4fe665d908e2937cae5ba39fd7c9b45cc2"
)

func TestExportBytesPinned(t *testing.T) {
	city := "-city citygrid -clients 20 -aps 60 -minutes 1 -seed 3 -chaos mild"
	cases := []struct {
		name string
		args string
		want map[string]string // output file -> SHA-256
	}{
		{"drive", "-minutes 2 -seed 3 -archive-out a.json",
			map[string]string{"a.json": driveArchive}},
		{"reps-chaos", "-config 3ch-multi -minutes 2 -seed 3 -reps 4 -workers 2 -chaos mild -archive-out a.json",
			map[string]string{"a.json": repsArchive}},
		{"citygrid-shards1", city + " -shards 1 -archive-out a.json",
			map[string]string{"a.json": cityArchive}},
		{"citygrid-shards2", city + " -shards 2 -archive-out a.json",
			map[string]string{"a.json": cityArchive}},
		{"citygrid-stagger", "-city citygrid -clients 24 -aps 80 -area-w 2400 -area-h 1600 -minutes 1 -seed 5 -join-spread 20s -join-ramp exp -archive-out a.json",
			map[string]string{"a.json": staggerArchive}},
		{"citygrid-exports", city + " -shards 1 -metrics-out m.prom -trace-out t.jsonl -archive-out a.json",
			map[string]string{"a.json": cityArchive, "m.prom": cityMetricsProm, "t.jsonl": cityTraceJSONL}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.Fields(tc.args)
			for i, a := range args {
				if _, ok := tc.want[a]; ok {
					args[i] = filepath.Join(dir, a)
				}
			}
			var stderr strings.Builder
			if code := run(args, io.Discard, &stderr); code != 0 {
				t.Fatalf("exit %d: %s", code, stderr.String())
			}
			for name, want := range tc.want {
				b, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(b)
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s: sha256 %s, want %s", name, got, want)
				}
			}
		})
	}
}

// A flag only the other mode reads must fail the invocation before
// anything runs, instead of being silently dropped.
func TestModeOnlyFlagsRejected(t *testing.T) {
	city := "-city citygrid -clients 20 -aps 60 -minutes 1 "
	cases := []struct{ args, flag string }{
		{city + "-pcap x.pcap", "-pcap"},
		{city + "-speed 30", "-speed"},
		{"-minutes 1 -area-w 2400", "-area-w"},
		{"-minutes 1 -area-h 1600", "-area-h"},
		{"-minutes 1 -clients 20", "-clients"},
		{"-minutes 1 -shards 2", "-shards"},
		{"-minutes 1 -join-spread 5s", "-join-spread"},
		{"-minutes 1 -join-ramp exp", "-join-ramp"},
		{"-minutes 1 -checkpoint-out c.ckpt", "-checkpoint-out"},
		{"-minutes 1 -checkpoint-every 1", "-checkpoint-every"},
		{"-minutes 1 -resume c.ckpt", "-resume"},
	}
	for _, tc := range cases {
		t.Run(tc.flag, func(t *testing.T) {
			dir := t.TempDir()
			args := strings.Fields(tc.args)
			for i, a := range args {
				if strings.Contains(a, ".") {
					args[i] = filepath.Join(dir, a)
				}
			}
			var stderr strings.Builder
			if code := run(args, io.Discard, &stderr); code != 2 {
				t.Fatalf("exit %d, want 2 (stderr %q)", code, stderr.String())
			}
			if !strings.Contains(stderr.String(), tc.flag+" ") {
				t.Errorf("stderr %q does not name %s", stderr.String(), tc.flag)
			}
			if left, _ := os.ReadDir(dir); len(left) > 0 {
				t.Errorf("rejected run wrote %v", left)
			}
		})
	}
	// CI passes -workers to citygrid runs; it stays accepted there.
	if code := run(strings.Fields(city+"-workers 8"), io.Discard, io.Discard); code != 0 {
		t.Errorf("citygrid with -workers: exit %d, want 0", code)
	}
}
