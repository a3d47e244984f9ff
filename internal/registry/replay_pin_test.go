package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"github.com/easeml/ci/internal/wal"
)

var updatePins = flag.Bool("update", false, "rewrite the pins under testdata/replay")

// TestReplayPins pins what replay makes of the lifecycle records after
// project.create: project.suspend, project.resume and project.delete.
// Each scenario leaves a raw control log (the registry is abandoned, so
// nothing is compacted) whose last record is the one under test, and is
// reopened twice: from the clean log, and from the log with its last
// line torn in half. Each reopen records the project list and the log as
// reopen left it (its records' sequence numbers and types, and the
// SHA-256 of its bytes) in testdata/replay/<scenario>.txt. Run with
// -update to regenerate after a deliberate change.
func TestReplayPins(t *testing.T) {
	scenarios := []struct {
		name  string
		write func(r *Registry) error
	}{
		{"suspend", func(r *Registry) error {
			if err := r.Create("alpha", spec(`{"w":1}`)); err != nil {
				return err
			}
			return r.Suspend("alpha")
		}},
		{"resume", func(r *Registry) error {
			if err := r.Create("alpha", spec(`{"w":1}`)); err != nil {
				return err
			}
			if err := r.Suspend("alpha"); err != nil {
				return err
			}
			return r.Resume("alpha")
		}},
		{"delete", func(r *Registry) error {
			for _, id := range []string{"alpha", "beta"} {
				if err := r.Create(id, spec(fmt.Sprintf(`{"name":%q}`, id))); err != nil {
					return err
				}
			}
			return r.Delete("alpha")
		}},
	}
	for _, sc := range scenarios {
		t.Run(sc.name, func(t *testing.T) {
			dir := t.TempDir()
			r, err := Open(dir, Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			if err := sc.write(r); err != nil {
				t.Fatal(err)
			}
			_ = r.log.Close() // abandon uncompacted
			raw, err := os.ReadFile(filepath.Join(dir, "wal.log"))
			if err != nil {
				t.Fatal(err)
			}
			last := bytes.LastIndexByte(raw[:len(raw)-1], '\n') + 1
			var out bytes.Buffer
			for _, v := range []struct {
				name string
				log  []byte
			}{
				{"clean", raw},
				{"torn", raw[:last+(len(raw)-last)/2]},
			} {
				fmt.Fprintf(&out, "== %s\n", v.name)
				vdir := t.TempDir()
				if err := os.WriteFile(filepath.Join(vdir, "wal.log"), v.log, 0o644); err != nil {
					t.Fatal(err)
				}
				r, err := Open(vdir, Options{NoSync: true})
				if err != nil {
					t.Fatal(err)
				}
				list, err := json.Marshal(r.List())
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&out, "projects %s\n", list)
				reopened, err := os.ReadFile(filepath.Join(vdir, "wal.log"))
				if err != nil {
					t.Fatal(err)
				}
				_, records, err := wal.Read(vdir)
				if err != nil {
					t.Fatal(err)
				}
				_ = r.log.Close()
				for _, rec := range records {
					fmt.Fprintf(&out, "record %d %s\n", rec.Seq, rec.Type)
				}
				fmt.Fprintf(&out, "log %d bytes sha256 %x\n", len(reopened), sha256.Sum256(reopened))
			}
			checkPin(t, filepath.Join("testdata", "replay", sc.name+".txt"), out.Bytes())
		})
	}
}

// checkPin compares got with the pin file at path, or rewrites the file
// under -update.
func checkPin(t *testing.T, path string, got []byte) {
	t.Helper()
	if *updatePins {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("%s differs:\ngot:\n%s\nwant:\n%s", path, got, want)
	}
}
