package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"backuppower/internal/core"
	"backuppower/internal/grid"
	"backuppower/internal/httpapi"
	"backuppower/internal/sweep"
)

// servers is the modeled datacenter scale: backupd's default, which the
// benchmark never overrides.
const servers = 64

// Digest is what the checker keeps of a response body: its length and
// CRC-32C. CRC-32C detects every error burst of up to 32 bits, so one
// flipped byte always changes it.
type Digest struct {
	Len int64
	Sum uint32
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

func digestOf(b []byte) Digest {
	return Digest{Len: int64(len(b)), Sum: crc32.Checksum(b, castagnoli)}
}

// Reference computes the bytes a correct program answers a generated
// request with, in this process, outside any timed window. Every route
// is answered through grid.Runner: a scalar request is a one-row plan of
// the same op, re-wrapped in the route's response document, and a sweep
// is the runner's stream encoded the way the handler encodes it.
type Reference struct {
	runner *grid.Runner
	memo   map[string]Digest
}

func NewReference() *Reference {
	return &Reference{runner: grid.NewRunner(core.New(servers)), memo: map[string]Digest{}}
}

// Digest returns the expected digest of req's response, memoized by
// request body (the point workload revisits a bounded pool).
func (r *Reference) Digest(req Request) (Digest, error) {
	key := req.Path + "\x00" + string(req.Body)
	if d, ok := r.memo[key]; ok {
		return d, nil
	}
	b, err := r.Bytes(req)
	if err != nil {
		return Digest{}, err
	}
	d := digestOf(b)
	r.memo[key] = d
	return d, nil
}

// Bytes returns the expected response body of req.
func (r *Reference) Bytes(req Request) ([]byte, error) {
	spec, err := specOf(req)
	if err != nil {
		return nil, err
	}
	plan, err := grid.Compile(spec, grid.CompileOptions{DefaultServers: servers})
	if err != nil {
		return nil, fmt.Errorf("reference: %s: %w", req.Path, err)
	}
	var rows []grid.RowDTO
	ctx := sweep.WithWidth(context.Background(), 1)
	err = r.runner.RunStream(ctx, plan, grid.RunOptions{}, func(row grid.RowResult) error {
		rows = append(rows, grid.NewRowDTO(plan.Op, row))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("reference: %s: %w", req.Path, err)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if req.Kind == "sweep" {
		for _, row := range rows {
			if err := enc.Encode(row); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	}
	if len(rows) != 1 || rows[0].Error != "" {
		return nil, fmt.Errorf("reference: %s: want one clean row, got %d", req.Path, len(rows))
	}
	row := rows[0]
	switch req.Kind {
	case "evaluate":
		err = enc.Encode(httpapi.EvaluateResponse{Result: *row.Result})
	case "size":
		resp := httpapi.SizeResponse{}
		if *row.Feasible {
			resp = httpapi.SizeResponse{Feasible: true, Technique: row.Technique,
				Backup: row.Backup, NormCost: row.NormCost, Result: row.Result}
		}
		err = enc.Encode(resp)
	case "best":
		err = enc.Encode(httpapi.BestResponse{Technique: row.Best, Result: *row.Result})
	default:
		err = fmt.Errorf("reference: unknown request kind %q", req.Kind)
	}
	return buf.Bytes(), err
}

// specOf restates a generated request as the grid spec that answers it.
func specOf(req Request) (grid.Spec, error) {
	dec := func(v any) error {
		if err := json.Unmarshal(req.Body, v); err != nil {
			return fmt.Errorf("reference: decoding %s body: %w", req.Path, err)
		}
		return nil
	}
	switch req.Kind {
	case "evaluate":
		var e httpapi.EvaluateRequest
		if err := dec(&e); err != nil {
			return grid.Spec{}, err
		}
		return grid.Spec{Op: grid.OpEvaluate, Workloads: []string{e.Workload}, Configs: []grid.ConfigDTO{e.Config},
			Techniques: []grid.TechniqueDTO{e.Technique}, Outages: []string{e.Outage}}, nil
	case "size":
		var s httpapi.SizeRequest
		if err := dec(&s); err != nil {
			return grid.Spec{}, err
		}
		return grid.Spec{Op: grid.OpSize, Workloads: []string{s.Workload},
			Techniques: []grid.TechniqueDTO{s.Technique}, Outages: []string{s.Outage}}, nil
	case "best":
		var b httpapi.BestRequest
		if err := dec(&b); err != nil {
			return grid.Spec{}, err
		}
		return grid.Spec{Op: grid.OpBest, Workloads: []string{b.Workload}, Configs: []grid.ConfigDTO{b.Config},
			Outages: []string{b.Outage}}, nil
	case "sweep":
		var s httpapi.SweepRequest
		if err := dec(&s); err != nil {
			return grid.Spec{}, err
		}
		return s.Spec, nil
	}
	return grid.Spec{}, fmt.Errorf("reference: unknown request kind %q", req.Kind)
}
