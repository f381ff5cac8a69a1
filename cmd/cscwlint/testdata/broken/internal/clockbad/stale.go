package clockbad

// Fixed keeps a directive whose finding was fixed: it suppresses nothing,
// so linting must report it rather than let it hide the next det-time here.
func Fixed() int {
	//lint:ignore det-time the wall-clock read that stood here is gone
	return 0
}
