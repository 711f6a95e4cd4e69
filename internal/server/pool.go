package server

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/plan"
)

// slot is one pooled backend plus its compiled-plan cache. A slot is
// owned exclusively between acquire and release, so neither a session
// backend (safe for sequential use) nor the plan cache needs internal
// locking; the pool channel is the synchronization. (A backend shared by
// every slot is safe for concurrent use itself.)
type slot struct {
	id      int
	backend core.Backend
	plans   *planCache
}

type pool struct {
	slots chan *slot
	all   []*slot
}

func newPool(backends []core.Backend, planCap int) *pool {
	p := &pool{slots: make(chan *slot, len(backends))}
	for i, b := range backends {
		sl := &slot{id: i, backend: b, plans: newPlanCache(planCap)}
		p.all = append(p.all, sl)
		p.slots <- sl
	}
	return p
}

// acquire takes an idle session, waiting up to timeout for one to free.
func (p *pool) acquire(timeout time.Duration) (*slot, error) {
	select {
	case sl := <-p.slots:
		return sl, nil
	default:
	}
	t := time.NewTimer(timeout)
	defer t.Stop()
	select {
	case sl := <-p.slots:
		return sl, nil
	case <-t.C:
		return nil, fmt.Errorf("server: all %d sessions busy for %v", cap(p.slots), timeout)
	}
}

func (p *pool) release(sl *slot) { p.slots <- sl }

// withAll acquires every slot in turn (waiting for in-flight queries
// to release them) and applies fn — the registration path, which must
// keep the pooled catalogs identical.
func (p *pool) withAll(timeout time.Duration, fn func(*slot) error) error {
	held := make([]*slot, 0, len(p.all))
	defer func() {
		for _, sl := range held {
			p.release(sl)
		}
	}()
	for range p.all {
		sl, err := p.acquire(timeout)
		if err != nil {
			return err
		}
		held = append(held, sl)
	}
	for _, sl := range held {
		if err := fn(sl); err != nil {
			return err
		}
	}
	return nil
}

// compile resolves src to a compiled plan through the slot's cache:
// alias hit (no parse), canonical hit (parse + desugar only), or a
// full compile inserted for next time. cached reports whether the
// analysis/planning pipeline was skipped.
func (sl *slot) compile(src string) (q *plan.Compiled, cached bool, err error) {
	if q, ok := sl.plans.lookupAlias(src); ok {
		obsPlanHits.Inc()
		obsPlanAliasHits.Inc()
		return q, true, nil
	}
	canon, err := CanonicalKey(src)
	if err != nil {
		return nil, false, err
	}
	if q, ok := sl.plans.lookupCanon(canon, src); ok {
		obsPlanHits.Inc()
		return q, true, nil
	}
	q, err = sl.backend.Compile(src)
	if err != nil {
		return nil, false, err
	}
	obsPlanMisses.Inc()
	sl.plans.insert(canon, q, src)
	return q, false, nil
}
