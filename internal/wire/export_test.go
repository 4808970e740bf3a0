package wire

// ResetTypeTable empties the codec's type table, as in a process that has
// neither encoded a struct nor loaded a definition yet. Tests only.
func ResetTypeTable() {
	tableMu.Lock()
	defer tableMu.Unlock()
	byType.Store(nil)
	byRef.Store(nil)
}
