package netsim

// ConnLevel is a mobile host's level of connection (paper §4.2.2: "connection
// may vary from being disconnected to being partially connected (through a
// radio network) to being fully connected (through a high speed network)").
type ConnLevel int

const (
	// Disconnected means no connectivity at all.
	Disconnected ConnLevel = iota + 1
	// Partial means connected through a slow, lossy radio link.
	Partial
	// Full means connected through a high-speed network.
	Full
)

// String returns the level name.
func (l ConnLevel) String() string {
	switch l {
	case Disconnected:
		return "disconnected"
	case Partial:
		return "partial"
	case Full:
		return "full"
	default:
		return "unknown"
	}
}
