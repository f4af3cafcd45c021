package laqy

import "laqy/internal/core"

// Mode identifies the execution path that produced a Result. Mode
// implements fmt.Stringer ("exact", "online", "partial", "offline",
// "exact_fallback").
type Mode int

const (
	// ModeExact is exact (non-sampling) execution.
	ModeExact Mode = iota
	// ModeOnline built a full online sample — no reuse was possible.
	ModeOnline
	// ModePartial built only a Δ-sample over the missing range and merged
	// it with a stored sample: LAQy's lazy path.
	ModePartial
	// ModeOffline fully reused a stored sample: no data scan at all.
	ModeOffline
	// ModeExactFallback is exact execution entered because a requested
	// error bound could not be met by sampling.
	ModeExactFallback
)

// String implements fmt.Stringer.
func (m Mode) String() string {
	switch m {
	case ModeExact:
		return "exact"
	case ModeOnline:
		return "online"
	case ModePartial:
		return "partial"
	case ModeOffline:
		return "offline"
	case ModeExactFallback:
		return "exact_fallback"
	default:
		return "unknown"
	}
}

// Approximate reports whether the mode is a sampling-based path.
func (m Mode) Approximate() bool {
	return m == ModeOnline || m == ModePartial || m == ModeOffline
}

// modeFromCore maps the sampler's Algorithm 1 path to the public enum.
func modeFromCore(m core.Mode) Mode {
	switch m {
	case core.ModeOnline:
		return ModeOnline
	case core.ModePartial:
		return ModePartial
	case core.ModeOffline:
		return ModeOffline
	default:
		return ModeExact
	}
}
