package query

import (
	"sync"

	"tcodm/internal/schema"
)

// planCacheSize bounds the statement texts an engine keeps analyzed.
const planCacheSize = 1024

// maxPlanText bounds the text of a statement the cache keeps, so that a
// client sending long distinct statements (a frame carries up to 8 MiB)
// cannot pin more than planCacheSize short ones would; a longer
// statement is parsed and analyzed on every run.
const maxPlanText = 4096

// planCache maps statement text to its analyzed template: the plan with
// its $n slots still open. A template is shared by every run of its text
// and never written after Analyze returns; binding copies what it fills.
type planCache struct {
	mu sync.RWMutex
	m  map[string]cachedPlan
}

// cachedPlan is a template and the schema it was analyzed against. DDL
// installs a new *schema.Schema (copy, modify, freeze, swap), so a pointer
// mismatch is a schema change and the text is analyzed again.
type cachedPlan struct {
	sch *schema.Schema
	a   *Analyzed
}

// plan returns src's template for sch, parsing and analyzing src on a
// miss. Failures are not kept: a statement that names an attribute DDL has
// not added yet is analyzed again once it has.
func (e *Engine) plan(src string, sch *schema.Schema) (*Analyzed, error) {
	c := &e.plans
	c.mu.RLock()
	hit, ok := c.m[src]
	c.mu.RUnlock()
	if ok && hit.sch == sch {
		return hit.a, nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, err
	}
	a, err := Analyze(q, sch)
	if err != nil || len(src) > maxPlanText {
		return a, err
	}
	c.mu.Lock()
	if c.m == nil {
		c.m = make(map[string]cachedPlan)
	}
	if _, ok := c.m[src]; !ok && len(c.m) >= planCacheSize {
		for k := range c.m { // map order: an arbitrary victim
			delete(c.m, k)
			break
		}
	}
	c.m[src] = cachedPlan{sch: sch, a: a}
	c.mu.Unlock()
	return a, nil
}
