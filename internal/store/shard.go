package store

import "strconv"

// Router is the deterministic shard router in front of a fleet of
// stores (ISSUE 6): per-domain /local/domain/<id> subtrees are disjoint,
// so a server may run one store (behind its own lock) per shard
// and route every operation by the domain its path belongs to. The
// mapping is pure arithmetic on the domain id — no state, no clock — so
// a sharded server replays a trace onto exactly the same shards every
// run, which is what keeps sim-kernel discipline and golden-trace parity
// intact per shard.
//
// Structural nodes at or above the domain level (/, /local,
// /local/domain) and non-numeric children of /local/domain have no
// owning domain; the Router reports them as global and the caller keeps
// them on shard 0 (internal/netstore documents the resulting
// semantics).
type Router struct{ n int }

// NewRouter returns a router over n shards (minimum 1).
func NewRouter(n int) Router {
	if n < 1 {
		n = 1
	}
	return Router{n: n}
}

// Shards reports the shard count.
func (r Router) Shards() int { return r.n }

// ShardOf maps a domain to its home shard.
func (r Router) ShardOf(dom DomID) int {
	d := int(dom)
	if d < 0 {
		d = -d
	}
	return d % r.n
}

// PathShard maps an absolute path to the shard owning it. ok is false
// for structural/global paths, which live on shard 0 by convention (the
// index returned is 0 in that case, so callers that don't care about
// the distinction can use the index directly).
func (r Router) PathShard(path string) (shard int, ok bool) {
	dom, ok := PathDomain(path)
	if !ok {
		return 0, false
	}
	return r.ShardOf(dom), true
}

// PathDomain reports the domain owning path's /local/domain/<id>
// subtree. ok is false for paths at or above the domain level and for
// non-numeric children of /local/domain.
func PathDomain(path string) (DomID, bool) {
	const prefix = Root + "/"
	if len(path) <= len(prefix) || path[:len(prefix)] != prefix {
		return 0, false
	}
	rest := path[len(prefix):]
	end := len(rest)
	for i := 0; i < len(rest); i++ {
		if rest[i] == '/' {
			end = i
			break
		}
	}
	id, err := strconv.Atoi(rest[:end])
	if err != nil || id < 0 {
		return 0, false
	}
	return DomID(id), true
}
