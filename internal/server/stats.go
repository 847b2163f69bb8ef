package server

import (
	"encoding/json"
	"fmt"

	"noblsm/internal/obs"
	"noblsm/internal/vclock"
)

// ShardStat is one shard's entry in the STATS frame payload.
type ShardStat struct {
	Shard  int     `json:"shard"`
	Closed bool    `json:"closed"`
	Ops    int64   `json:"ops"`
	VSec   float64 `json:"virtual_sec"`
	P50Us  float64 `json:"p50_us"`
	P99Us  float64 `json:"p99_us"`
	P999Us float64 `json:"p999_us"`
	MaxUs  float64 `json:"max_us"`
}

// StatsPayload is the STATS frame's JSON document.
type StatsPayload struct {
	Shards  int         `json:"shards"`
	Conns   int64       `json:"conns_open"`
	Frames  int64       `json:"frames"`
	PerSh   []ShardStat `json:"per_shard"`
	TotalOp int64       `json:"total_ops"`
}

const us = float64(vclock.Microsecond)

// statsJSON renders the server-wide stats document served by the
// STATS opcode.
func (s *Server) statsJSON() []byte {
	snap := s.reg.Snapshot()
	p := StatsPayload{
		Shards: len(s.shards),
		Conns:  snap.Gauges["server.conns_open"],
		Frames: snap.Counters["server.frames"],
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		closed := sh.db == nil
		sh.mu.RUnlock()
		sh.latMu.Lock()
		st := ShardStat{
			Shard:  sh.id,
			Closed: closed,
			Ops:    sh.latCum.Count(),
			VSec:   float64(sh.vnow()) / float64(vclock.Second),
			P50Us:  float64(sh.latCum.Percentile(50)) / us,
			P99Us:  float64(sh.latCum.Percentile(99)) / us,
			P999Us: float64(sh.latCum.Percentile(99.9)) / us,
			MaxUs:  float64(sh.latCum.Max()) / us,
		}
		sh.latMu.Unlock()
		p.TotalOp += st.Ops
		p.PerSh = append(p.PerSh, st)
	}
	b, err := json.Marshal(p)
	if err != nil {
		return []byte(fmt.Sprintf(`{"error":%q}`, err.Error()))
	}
	return b
}

// Exposition assembles the HTTP observability surface: /metrics is the
// aggregate across the server registry and every shard registry,
// /stats carries per-shard snapshot sections, /doctor one health
// report per shard.
func (s *Server) Exposition() obs.Exposition {
	regs := map[string]*obs.Registry{"server": s.reg}
	docs := make(map[string]func() string, len(s.shards))
	for _, sh := range s.shards {
		regs[fmt.Sprintf("shard-%d", sh.id)] = sh.reg
		sh := sh
		docs[fmt.Sprintf("shard-%d", sh.id)] = func() string {
			sh.mu.RLock()
			defer sh.mu.RUnlock()
			if sh.db == nil {
				return "shard closed\n"
			}
			rep, _ := sh.db.Property("noblsm.doctor")
			return rep
		}
	}
	return obs.Exposition{Registries: regs, Doctors: docs}
}
