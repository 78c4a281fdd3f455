package dialegg

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"dialegg/internal/egglog"
)

// templateCap bounds how many rule-set templates stay resident. A server
// sees a handful of bundled rule sets plus whatever inline rules clients
// send; the least recently used template is dropped beyond this many.
const templateCap = 32

// ruleTemplate is one rule set compiled once: the prelude and the rule
// sources executed and Prepare run, frozen as a program that every
// function of every request clones instead of reloading. Nothing mutates
// it after it is built.
type ruleTemplate struct {
	prog *egglog.Program
	encs *Encodings
	// numRules counts the user's rules: the prelude's and Prepare's
	// type-of rules are excluded, as in the paper's Table 2.
	numRules int
}

// templateKey identifies a template: a hash of the rule sources (each
// length-prefixed) and the explanations flag, which changes how tables
// record rows.
type templateKey [sha256.Size]byte

func templateKeyOf(sources []string, explain bool) templateKey {
	h := sha256.New()
	var n [8]byte
	for _, src := range sources {
		binary.LittleEndian.PutUint64(n[:], uint64(len(src)))
		h.Write(n[:])
		h.Write([]byte(src))
	}
	if explain {
		h.Write([]byte{1})
	} else {
		h.Write([]byte{0})
	}
	var k templateKey
	h.Sum(k[:0])
	return k
}

// templates is the process-wide template cache. Only successful builds
// are cached: a build that fails or panics installs nothing.
var templates = templateCache{m: make(map[templateKey]*cachedTemplate)}

type templateCache struct {
	mu   sync.Mutex
	tick uint64
	m    map[templateKey]*cachedTemplate
}

type cachedTemplate struct {
	t    *ruleTemplate
	used uint64
}

func (c *templateCache) get(k templateKey) *ruleTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	e := c.m[k]
	if e == nil {
		return nil
	}
	c.tick++
	e.used = c.tick
	return e.t
}

// put installs t under k and returns the template now cached there: an
// equal one built concurrently wins if it got there first.
func (c *templateCache) put(k templateKey, t *ruleTemplate) *ruleTemplate {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if e := c.m[k]; e != nil {
		e.used = c.tick
		return e.t
	}
	if len(c.m) >= templateCap {
		var oldest templateKey
		oldestUsed := c.tick
		for key, e := range c.m {
			if e.used < oldestUsed {
				oldest, oldestUsed = key, e.used
			}
		}
		delete(c.m, oldest)
	}
	c.m[k] = &cachedTemplate{t: t, used: c.tick}
	return t
}

// template returns the compiled template of the optimizer's rule set,
// building it on the first request for that rule set in the process.
func (o *Optimizer) template() (*ruleTemplate, error) {
	if t := templates.get(o.key); t != nil {
		return t, nil
	}
	t, err := buildTemplate(o.opts.RuleSources, o.opts.ExplainRewrites)
	if err != nil {
		return nil, err
	}
	return templates.put(o.key, t), nil
}

// buildTemplate loads the prelude and the rule sources into a fresh
// program and runs Prepare. The program records its own journal
// (RecordHistory), so a journal attached to a clone replays from scratch.
func buildTemplate(sources []string, explain bool) (*ruleTemplate, error) {
	p := egglog.NewProgram()
	p.RecordHistory()
	if explain {
		p.Graph().EnableExplanations()
	}
	if _, err := p.ExecuteString(Prelude); err != nil {
		return nil, fmt.Errorf("dialegg: prelude: %w", err)
	}
	for i, src := range sources {
		if _, err := p.ExecuteString(src); err != nil {
			return nil, fmt.Errorf("dialegg: rule source %d: %w", i, err)
		}
	}
	numRules := p.NumRules() - preludeRuleCount
	encs, err := Prepare(p)
	if err != nil {
		return nil, err
	}
	// Cloning freezes the recorded history; the clone is what every
	// function clones in turn.
	return &ruleTemplate{prog: p.Clone(), encs: encs, numRules: numRules}, nil
}
