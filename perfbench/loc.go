package main

import (
	"bufio"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
)

// addLOC fills the size ledger: non-test Go lines per module and in the
// whole program, counting neither blank lines nor whole-line comments, so
// reformatting or trimming comments does not read as a deletion. The
// benchmark's own directory and hidden directories are not the program.
func addLOC(m map[string]metric, root string) error {
	for _, mod := range locModules {
		n, err := countDir(filepath.Join(root, mod.dir), false)
		if err != nil {
			return err
		}
		m["loc."+mod.name] = metric{Value: float64(n), Unit: "lines"}
	}
	n, err := countDir(root, true)
	if err != nil {
		return err
	}
	m["loc.total"] = metric{Value: float64(n), Unit: "lines"}
	return nil
}

func countDir(dir string, recursive bool) (int, error) {
	total := 0
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == dir {
				return nil
			}
			name := d.Name()
			if !recursive || name == "perfbench" || name == "testdata" || strings.HasPrefix(name, ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		n, err := countLines(path)
		total += n
		return err
	})
	return total, err
}

func countLines(path string) (int, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	n := 0
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line != "" && !strings.HasPrefix(line, "//") {
			n++
		}
	}
	return n, sc.Err()
}
