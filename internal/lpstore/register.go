package lpstore

import "livepoints/internal/livepoint"

// init makes this package the opener behind livepoint.OpenSource (and
// through it RunFile and RunMatchedFile): any binary that imports lpstore
// can run library files. The source owns its store and closes it.
func init() {
	livepoint.SetOpener(func(path string) (livepoint.Source, error) {
		st, err := Open(path)
		if err != nil {
			return nil, err
		}
		src := st.Source().(*storeSource)
		src.ownStore = true
		return src, nil
	})
}
