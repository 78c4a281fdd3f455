// Package memo is the optimization-result memoization layer of the
// serving subsystem: a content-addressed cache keyed by a canonical hash
// of (parsed module, rule sources, run config), plus a singleflight group
// that deduplicates concurrent identical computations with refcounted
// cancellation.
//
// The design follows the amortization argument of Caviar and egg: real
// deployments see many identical or near-identical (program, rules)
// queries, and equality saturation is expensive enough that memoizing at
// the service boundary — not inside the e-graph — is where the win is.
// Content addressing makes the cache safe by construction: a key is a
// SHA-256 over the canonically printed module, every rule source, and the
// semantically relevant run-config bounds, so two requests share an entry
// exactly when the optimizer would be run with identical inputs.
package memo

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"

	"dialegg/internal/dialects"
	"dialegg/internal/egraph"
	"dialegg/internal/mlir"
)

// CanonicalizeMLIR parses src and reprints it in the canonical form keys
// are derived from. Canonicalization erases non-semantic drift —
// whitespace, comments, SSA-name spelling where the printer renames — so
// textually different but structurally identical modules hash alike. The
// canonical form is a fixed point: parse(print(m)) prints identically
// (enforced by TestCanonicalPrintFixpoint), which is what makes keys
// stable across client/server round trips.
func CanonicalizeMLIR(src string) (string, error) {
	reg := dialects.NewRegistry()
	m, err := mlir.ParseModule(src, reg)
	if err != nil {
		return "", err
	}
	return mlir.PrintModuleCanonical(m, reg), nil
}

// keyWriter writes Key's fields into a SHA-256 hash, each length-prefixed
// and tagged. The prefix makes the encoding injective: no concatenation of
// sections can collide with a different split of the same bytes. Text goes
// to the hash through buf, so the module and rule sources are hashed
// without a []byte copy of each.
type keyWriter struct {
	h   hash.Hash
	buf [512]byte
}

func (w *keyWriter) writeUint(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.h.Write(w.buf[:8])
}

func (w *keyWriter) writeText(s string) {
	for len(s) > 0 {
		n := copy(w.buf[:], s)
		w.h.Write(w.buf[:n])
		s = s[n:]
	}
}

func (w *keyWriter) writeString(tag, s string) {
	w.writeUint(uint64(len(tag)))
	w.writeText(tag)
	w.writeUint(uint64(len(s)))
	w.writeText(s)
}

func (w *keyWriter) writeInt(tag string, v int64) {
	w.writeUint(uint64(len(tag)))
	w.writeText(tag)
	w.writeUint(uint64(v))
}

// Key returns the content address of one optimization request: a hex
// SHA-256 over the canonical module text, each rule source in order, and
// the run-config fields that can change the result (iteration, node,
// match, and time limits, and naive mode). Fields that are proven not to
// affect the output — Workers and every observability knob — are
// deliberately excluded, so a traced run and a production run share cache
// entries. The config is defaulted first, making zero-valued and
// explicit-default configs cache-equivalent.
func Key(canonicalMLIR string, ruleSources []string, cfg egraph.RunConfig) string {
	cfg = cfg.WithDefaults()
	w := &keyWriter{h: sha256.New()}
	w.writeString("mlir", canonicalMLIR)
	w.writeInt("nrules", int64(len(ruleSources)))
	for _, r := range ruleSources {
		w.writeString("rule", r)
	}
	w.writeInt("iter", int64(cfg.IterLimit))
	w.writeInt("node", int64(cfg.NodeLimit))
	w.writeInt("match", int64(cfg.MatchLimit))
	w.writeInt("time", int64(cfg.TimeLimit))
	naive := int64(0)
	if cfg.Naive {
		naive = 1
	}
	w.writeInt("naive", naive)
	// A scheduler changes which matches run, so it is part of result
	// identity. The simple strategy (and nil) is bit-identical to the
	// unscheduled engine and is deliberately left out of the hash, so
	// cache entries written before scheduling existed stay valid.
	if cfg.Scheduler != nil {
		if fp := cfg.Scheduler.Fingerprint(); fp != "simple" {
			w.writeString("sched", fp)
		}
	}
	// The digest and its hex form both fit in buf, behind one another.
	sum := w.h.Sum(w.buf[:0])
	return string(hex.AppendEncode(sum[len(sum):], sum))
}
