package dialegg

// ResetTemplates empties the process-wide template cache, so the next
// compile of every rule set builds its template afresh.
func ResetTemplates() {
	templates.mu.Lock()
	defer templates.mu.Unlock()
	clear(templates.m)
}
