package trace

// IndexWidth reports the width in bytes of t's static indices.
func IndexWidth(t *Trace) int {
	if t.idx32 != nil {
		return 4
	}
	return 2
}
