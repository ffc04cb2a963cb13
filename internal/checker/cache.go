package checker

import (
	"crypto/sha256"
	"encoding/json"
	"sync"

	"repro/internal/diagram"
)

// CheckCache memoizes per-pipeline check results by content address:
// the key is a hash of the machine configuration, the document's
// variable declarations, and the pipeline's full semantic state. An
// interactive editor routes every re-check through the cache so
// commands that did not touch a pipeline never re-run its pass — the
// incremental half of the compilation pipeline's caching story (the
// program-level compile cache lives in internal/pipeline).
//
// Content addressing makes the cache self-invalidating: any mutation
// to a pipeline (or to the declarations its DMA checks read) produces
// a different key and therefore a fresh check. A CheckCache is safe
// for concurrent use.
type CheckCache struct {
	mu      sync.Mutex
	entries map[string][]Diagnostic
	hits    int64
	misses  int64
}

// CheckCacheStats reports a cache's behaviour.
type CheckCacheStats struct {
	Hits    int64
	Misses  int64
	Entries int
}

// NewCheckCache returns an empty cache.
func NewCheckCache() *CheckCache {
	return &CheckCache{entries: map[string][]Diagnostic{}}
}

// Stats returns the hit/miss counters.
func (cc *CheckCache) Stats() CheckCacheStats {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return CheckCacheStats{Hits: cc.hits, Misses: cc.misses, Entries: len(cc.entries)}
}

// Reset drops every entry and zeroes the counters.
func (cc *CheckCache) Reset() {
	cc.mu.Lock()
	cc.entries = map[string][]Diagnostic{}
	cc.hits, cc.misses = 0, 0
	cc.mu.Unlock()
}

// pipeKey content-addresses one pipeline's check inputs. JSON encoding
// of the semantic structs is deterministic (struct fields in order,
// slices in order), so equal state hashes equally.
func pipeKey(c *Checker, doc *diagram.Document, p *diagram.Pipeline) string {
	h := sha256.New()
	enc := json.NewEncoder(h)
	// The rule set is a pure function of the machine configuration.
	if err := enc.Encode(c.Inv.Cfg); err != nil {
		panic("checker: hashing config: " + err.Error())
	}
	// DMA bounds checks read the declarations.
	if err := enc.Encode(doc.Decls); err != nil {
		panic("checker: hashing decls: " + err.Error())
	}
	if err := enc.Encode(p); err != nil {
		panic("checker: hashing pipeline: " + err.Error())
	}
	return string(h.Sum(nil))
}

// CheckPipeline is the cached variant of Checker.CheckPipeline: a
// content hit replays the stored diagnostics without re-running the
// pass.
func (cc *CheckCache) CheckPipeline(c *Checker, doc *diagram.Document, p *diagram.Pipeline) []Diagnostic {
	key := pipeKey(c, doc, p)
	cc.mu.Lock()
	if ds, ok := cc.entries[key]; ok {
		cc.hits++
		cc.mu.Unlock()
		return append([]Diagnostic(nil), ds...)
	}
	cc.misses++
	cc.mu.Unlock()

	_, ds := c.CheckPipeline(doc, p)
	cc.mu.Lock()
	cc.entries[key] = append([]Diagnostic(nil), ds...)
	cc.mu.Unlock()
	return ds
}

// CheckDocument is the cached variant of Checker.CheckDocument:
// per-pipeline results come from the cache when their inputs are
// unchanged; the declaration and flow checks always re-run (they are
// cheap and depend on whole document regions). The diagnostic order
// matches the uncached pass exactly.
func (cc *CheckCache) CheckDocument(c *Checker, doc *diagram.Document) []Diagnostic {
	var diags []Diagnostic
	for _, p := range doc.Pipes {
		diags = append(diags, cc.CheckPipeline(c, doc, p)...)
	}
	diags = append(diags, c.checkDecls(doc)...)
	diags = append(diags, c.CheckFlow(doc)...)
	return diags
}
