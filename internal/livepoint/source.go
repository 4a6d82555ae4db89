package livepoint

import "errors"

// Source supplies encoded live-point blobs to experiment runners, one blob
// per point in the library's read order. Implementations are the sharded
// store (internal/lpstore) and the remote streaming client
// (internal/lpserve).
type Source interface {
	// Meta describes the library behind the source.
	Meta() Meta
	// NextBlob returns the next encoded live-point, or io.EOF after the
	// last.
	//
	// Ownership: the returned slice is only guaranteed valid until the
	// next NextBlob call on the same source — implementations may reuse
	// the buffer. Callers that retain a blob (or hand it to another
	// goroutine) must copy it first. DecodeInto never retains the blob,
	// so decode-then-recycle needs no copy.
	NextBlob() ([]byte, error)
	// Close releases the source's resources. A source need not be drained
	// before closing.
	Close() error
}

// opener opens a library file. internal/lpstore installs it from its init,
// the way an image format registers its decoder: this package cannot import
// lpstore (lpstore builds on Source and Meta), and the container format is
// lpstore's to know.
var opener func(path string) (Source, error)

// SetOpener installs the library-file opener behind OpenSource, RunFile and
// RunMatchedFile. It is called from an init function, so reads need no
// lock.
func SetOpener(fn func(path string) (Source, error)) { opener = fn }

// OpenSource opens a library file as a Source. The source it returns owns
// the file: Close releases it.
func OpenSource(path string) (Source, error) {
	if opener == nil {
		return nil, errors.New("livepoint: no library format linked in (import livepoints/internal/lpstore)")
	}
	return opener(path)
}
