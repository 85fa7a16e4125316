package splitter

// Unchecked is Extended with the overlap, infix and class analyses and the
// class-size threshold skipped; AnyClassSize skips the threshold alone.
// They exist to show what each check prevents.
const (
	Unchecked    = unchecked
	AnyClassSize = anyClassSize
)
