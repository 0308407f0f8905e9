package bas

// ImageCount reports how many deploy-shape images the tables hold.
func ImageCount() int { return minixTable.len() + linuxTable.len() + sel4Table.len() }

// len reports how many keys the memo holds.
func (m *memo[K, V]) len() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.entries)
}
