package world

// TableRefs reports the object-table reference count of hash in rt: the
// retentions frames and pins hold on it (0 when the table has no entry).
func (rt *Runtime) TableRefs(hash int64) int {
	s := rt.table.shard(hash)
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.entries[hash].refs
}
