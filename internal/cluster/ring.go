package cluster

import (
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"sync"
)

// DefaultVirtualNodes is how many ring points each member contributes
// when the caller passes a non-positive count. More points smooth the
// key distribution across members at the cost of a larger (still tiny)
// sorted ring; 64 keeps the max/min ownership skew under ~2x for small
// clusters.
const DefaultVirtualNodes = 64

// Ring is a consistent-hash ring with virtual nodes. Keys (database
// names) and members (replica names) hash onto the same 64-bit circle;
// a key is owned by the first member point clockwise from the key's
// hash. Because every member contributes many points, adding or
// removing one member moves only the key ranges adjacent to that
// member's points — ownership of everything else is stable, which is
// what makes replica topology changes cheap for the router's plan
// caches and adaptation windows.
//
// Safe for concurrent use.
type Ring struct {
	vnodes int

	mu      sync.RWMutex
	points  []ringPoint // sorted by hash
	members map[string]bool
}

// ringPoint is one virtual node: a member's i-th position on the circle.
type ringPoint struct {
	hash   uint64
	member string
}

// NewRing returns an empty ring where every member will contribute
// vnodes virtual points (DefaultVirtualNodes if vnodes <= 0).
func NewRing(vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVirtualNodes
	}
	return &Ring{vnodes: vnodes, members: map[string]bool{}}
}

// hash64 positions a string on the circle: FNV-1a for the byte walk,
// then a murmur-style finalizer. FNV alone must not be used here — its
// weak avalanche leaves strings differing only in a suffix ("r1#0" …
// "r1#63", exactly what vnode labels look like) clustered in one tiny
// arc, collapsing the ring to effectively one point per member.
func hash64(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	x := h.Sum64()
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Add inserts a member's virtual points. Duplicate registration is an
// error: two replicas under one name would silently halve that name's
// capacity.
func (r *Ring) Add(member string) error {
	if member == "" {
		return fmt.Errorf("cluster: ring member name must be non-empty")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[member] {
		return fmt.Errorf("cluster: ring member %q already registered", member)
	}
	r.members[member] = true
	for i := 0; i < r.vnodes; i++ {
		r.points = append(r.points, ringPoint{
			hash:   hash64(fmt.Sprintf("%s#%d", member, i)),
			member: member,
		})
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Identical hashes (vanishingly rare) order by member so the ring
		// layout is deterministic regardless of insertion order.
		return r.points[i].member < r.points[j].member
	})
	return nil
}

// Members returns the registered member names, sorted.
func (r *Ring) Members() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.members))
	for m := range r.members {
		out = append(out, m)
	}
	sort.Strings(out)
	return out
}

// Owner returns the member owning key, or "" on an empty ring.
func (r *Ring) Owner(key string) string {
	if s := r.Successors(key, 1); len(s) > 0 {
		return s[0]
	}
	return ""
}

// Successors returns up to n distinct members in ring order starting at
// the key's owner — the failover sequence: if the owner is down, the
// next member clockwise takes the request, and so on. n <= 0 (or n
// larger than the membership) returns every member, still in ring
// order.
func (r *Ring) Successors(key string, n int) []string {
	return r.appendSuccessors(nil, key, n)
}

// appendSuccessors appends Successors(key, n) to dst and returns the
// extended slice. Backed by a caller's array that holds the membership,
// the walk allocates nothing: a member already met is found by a scan of
// the few names appended so far.
func (r *Ring) appendSuccessors(dst []string, key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 {
		return dst
	}
	if n <= 0 || n > len(r.members) {
		n = len(r.members)
	}
	kh := hash64(key)
	// First point clockwise from the key (wrapping past the top).
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= kh })
	from := len(dst)
	for i := 0; i < len(r.points) && len(dst)-from < n; i++ {
		m := r.points[(start+i)%len(r.points)].member
		if !slices.Contains(dst[from:], m) {
			dst = append(dst, m)
		}
	}
	return dst
}
