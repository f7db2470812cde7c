package cluster

// Test-only surface: ring and router operations the package's tests pin
// contracts through, which no program calls.

// Remove deletes a member's virtual points; removing an unknown member
// is a no-op.
func (r *Ring) Remove(member string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.members[member] {
		return
	}
	delete(r.members, member)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.member != member {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Size returns the member count.
func (r *Ring) Size() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.members)
}

// Deregister removes a replica from the ring and returns its backend
// (not closed — the caller may still own it). Ownership of the removed
// replica's key ranges shifts to their ring successors; everything else
// keeps its owner.
func (r *Router) Deregister(name string) (Backend, bool) {
	r.mu.Lock()
	defer r.mu.Unlock()
	rep, ok := r.replicas[name]
	if !ok {
		return nil, false
	}
	r.ring.Remove(name)
	delete(r.replicas, name)
	return rep.b, true
}
