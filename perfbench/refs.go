package main

import (
	"context"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// The reference digests were generated once with the tick engine, the
// classic one-cycle-per-step loop the event engine must match bit for bit
// (go run . -gen-refs refs, from this directory).
//
//go:embed refs/*.json
var refFS embed.FS

const refSchema = "perfbench-refs/v1"

// refFile is one committed reference file.
type refFile struct {
	Schema  string            `json:"schema"`
	Engine  string            `json:"engine"`
	Scale   float64           `json:"scale"`
	Digests map[string]string `json:"digests"`
}

func loadRefs(name string, scale float64) (*refFile, error) {
	data, err := refFS.ReadFile("refs/" + name)
	if err != nil {
		return nil, fmt.Errorf("reading references: %w", err)
	}
	var f refFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("decoding references %s: %w", name, err)
	}
	if f.Schema != refSchema || f.Scale != scale {
		return nil, fmt.Errorf("references %s: schema %q scale %g, want %q scale %g",
			name, f.Schema, f.Scale, refSchema, scale)
	}
	return &f, nil
}

func digestBytes(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16])
}

// resultDigest covers every field of a simulation result: every counter,
// the per-stream and cache statistics and the program's outputs.
func resultDigest(res *core.Result) string {
	return digestBytes([]byte(fmt.Sprintf("%+v", *res)))
}

// programDigest covers a program image: text, data and entry points.
func programDigest(p *asm.Program) string {
	return digestBytes([]byte(fmt.Sprintf("%d %d %v %d %x %d", p.Entry, p.TextBase, p.Text, p.DataBase, p.Data, p.BSSBytes)))
}

func simKey(inSeed uint64, w, cfg string) string {
	return strconv.FormatUint(inSeed, 10) + "/" + w + "/" + cfg
}

// generateRefs recomputes every reference digest with the tick engine and
// writes the reference files into dir.
func generateRefs(dir string, log io.Writer) error {
	sim := refFile{Schema: refSchema, Engine: "tick", Scale: simScale, Digests: map[string]string{}}
	for in := uint64(1); in <= simInputSeeds; in++ {
		for _, w := range workload.All() {
			prog := w.ProgramSeeded(simScale, in)
			for _, sc := range simConfigs {
				c, err := core.New(prog, sc.cfg)
				if err != nil {
					return err
				}
				res, err := c.RunWith(context.Background(), core.RunOptions{Engine: core.EngineTick})
				if err != nil {
					return fmt.Errorf("%s seed %d %s: %w", w.Name, in, sc.name, err)
				}
				sim.Digests[simKey(in, w.Name, sc.name)] = resultDigest(res)
			}
		}
		fmt.Fprintf(log, "sim-suite input seed %d done\n", in)
	}

	fig := refFile{Schema: refSchema, Engine: "tick", Scale: figScale, Digests: map[string]string{}}
	for _, w := range workload.All() {
		fig.Digests["program/"+w.Name] = programDigest(w.Program(figScale))
	}
	r := experiments.NewRunner(figScale)
	r.RunOpts.Engine = core.EngineTick
	for _, e := range experiments.AllExperiments() {
		out, err := e.Run(r)
		if err != nil {
			return fmt.Errorf("experiment %s: %w", e.ID, err)
		}
		fig.Digests[e.ID] = digestBytes([]byte(out))
		fmt.Fprintf(log, "experiment %s done\n", e.ID)
	}

	for name, f := range map[string]*refFile{"sim-suite.json": &sim, "figures.json": &fig} {
		data, err := json.MarshalIndent(f, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("writing references: %w", err)
		}
	}
	return nil
}
