package serve

import (
	"os"
	"path/filepath"
)

// atomicWrite writes name under dir via temp file + fsync + rename + dir
// sync, so a kill -9 leaves either the old file, the new file, or a stray
// temp file, never a half-written one. Job specs and result records are
// written through it.
func atomicWrite(dir, name string, data []byte) error {
	f, err := os.CreateTemp(dir, name+".tmp*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	cleanup := func() {
		f.Close()
		os.Remove(tmp)
	}
	if _, err := f.Write(data); err != nil {
		cleanup()
		return err
	}
	if err := f.Sync(); err != nil {
		cleanup()
		return err
	}
	if err := os.Rename(tmp, filepath.Join(dir, name)); err != nil {
		cleanup()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	return syncDir(dir)
}

func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	return d.Sync()
}
