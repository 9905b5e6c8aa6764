package sweep

import (
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// Both implementations must satisfy the same contract; run the shared
// conformance suite over each.
func TestStoreConformance(t *testing.T) {
	t.Run("dir", func(t *testing.T) {
		st, err := NewDirStore(filepath.Join(t.TempDir(), "store"))
		if err != nil {
			t.Fatalf("NewDirStore: %v", err)
		}
		testStoreContract(t, st)
	})
	t.Run("mem", func(t *testing.T) {
		testStoreContract(t, NewMemStore())
	})
}

func testStoreContract(t *testing.T, st Store) {
	t.Helper()
	if _, err := st.Get("run/missing"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get missing: want fs.ErrNotExist, got %v", err)
	}
	if err := st.Delete("run/missing"); err != nil {
		t.Fatalf("Delete missing: %v", err)
	}
	puts := map[string]string{
		"run/plan":      "the plan",
		"run/done/0-0":  "first",
		"run/done/0-8":  "second",
		"run/claim/0-0": "alice",
		"other/plan":    "foreign",
	}
	for name, data := range puts {
		if err := st.Put(name, []byte(data)); err != nil {
			t.Fatalf("Put %s: %v", name, err)
		}
	}
	for name, data := range puts {
		got, err := st.Get(name)
		if err != nil || string(got) != data {
			t.Fatalf("Get %s = %q, %v; want %q", name, got, err, data)
		}
	}
	// Put replaces.
	if err := st.Put("run/plan", []byte("replaced")); err != nil {
		t.Fatalf("Put replace: %v", err)
	}
	if got, _ := st.Get("run/plan"); string(got) != "replaced" {
		t.Fatalf("Get after replace = %q", got)
	}
	names, err := st.List("run/done/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if want := []string{"run/done/0-0", "run/done/0-8"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List run/done/ = %v, want %v", names, want)
	}
	all, err := st.List("run/")
	if err != nil {
		t.Fatalf("List run/: %v", err)
	}
	if want := []string{"run/claim/0-0", "run/done/0-0", "run/done/0-8", "run/plan"}; !reflect.DeepEqual(all, want) {
		t.Fatalf("List run/ = %v, want %v", all, want)
	}
	if err := st.Delete("run/claim/0-0"); err != nil {
		t.Fatalf("Delete: %v", err)
	}
	if _, err := st.Get("run/claim/0-0"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get deleted: want fs.ErrNotExist, got %v", err)
	}
	// The name grammar is enforced on every entry point.
	for _, bad := range []string{"", "a//b", "../escape", "run/..", "a b", "sl\\ash", "é"} {
		if err := st.Put(bad, []byte("x")); err == nil {
			t.Errorf("Put %q: want name error", bad)
		}
		if _, err := st.Get(bad); err == nil {
			t.Errorf("Get %q: want name error", bad)
		}
		if err := st.Delete(bad); err == nil {
			t.Errorf("Delete %q: want name error", bad)
		}
	}
}

// A faulted MemStore Put can tear the object (store a prefix) or drop it,
// and the writer always learns it failed.
func TestMemStoreFaultPuts(t *testing.T) {
	st := NewMemStore()
	st.FaultPuts(func(name string, data []byte) ([]byte, error) {
		switch name {
		case "torn":
			return data[:2], errors.New("crashed mid-write")
		case "dropped":
			return nil, errors.New("media gone")
		}
		return data, nil
	})
	if err := st.Put("torn", []byte("payload")); err == nil {
		t.Fatal("torn Put: want error")
	}
	if got, _ := st.Get("torn"); string(got) != "pa" {
		t.Fatalf("torn object = %q, want prefix \"pa\"", got)
	}
	if err := st.Put("dropped", []byte("payload")); err == nil {
		t.Fatal("dropped Put: want error")
	}
	if _, err := st.Get("dropped"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("dropped object: want fs.ErrNotExist, got %v", err)
	}
	if err := st.Put("fine", []byte("payload")); err != nil {
		t.Fatalf("passthrough Put: %v", err)
	}
	st.FaultPuts(nil)
	if err := st.Put("torn", []byte("payload")); err != nil {
		t.Fatalf("Put after removing fault: %v", err)
	}
	if got, _ := st.Get("torn"); string(got) != "payload" {
		t.Fatalf("healed object = %q", got)
	}
}

// A DirStore whose root turns read-only must fail writes with a typed
// error (errors.Is fs.ErrPermission) and never panic; reads of existing
// objects keep working — graceful degradation to a read-only replica.
func TestDirStoreReadOnlyRoot(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	if err := st.Put("run/done/0-0", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.Chmod(root, 0o555); err != nil {
		t.Fatalf("chmod: %v", err)
	}
	t.Cleanup(func() { os.Chmod(root, 0o755) })
	if err := st.Put("other/0-0", []byte("x")); !errors.Is(err, fs.ErrPermission) {
		t.Fatalf("Put under read-only root = %v, want fs.ErrPermission", err)
	}
	if got, err := st.Get("run/done/0-0"); err != nil || string(got) != "payload" {
		t.Fatalf("Get under read-only root = %q, %v", got, err)
	}
	if names, err := st.List("run/"); err != nil || len(names) != 1 {
		t.Fatalf("List under read-only root = %v, %v", names, err)
	}
}

// A DirStore whose root is deleted mid-run must return typed errors from
// every method — Put must NOT silently recreate an empty root, and List
// must NOT read the vanished store as "no work was ever done".
func TestDirStoreRootDeletedMidRun(t *testing.T) {
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	if err := st.Put("run/done/0-0", []byte("payload")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	if err := os.RemoveAll(root); err != nil {
		t.Fatalf("remove root: %v", err)
	}
	if err := st.Put("run/done/0-8", []byte("x")); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Put after root deletion = %v, want fs.ErrNotExist", err)
	}
	if _, err := os.Stat(root); err == nil {
		t.Fatal("Put resurrected the deleted root")
	}
	if _, err := st.List("run/"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("List after root deletion = %v, want fs.ErrNotExist", err)
	}
	if _, err := st.Get("run/done/0-0"); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("Get after root deletion = %v, want fs.ErrNotExist", err)
	}
}

// DirStore.List must not surface in-flight temp files as objects.
func TestDirStoreListSkipsTempFiles(t *testing.T) {
	st, err := NewDirStore(t.TempDir())
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	if err := st.Put("run/done/0-0", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	// Simulate a crashed writer's leftover temp file.
	leftover := filepath.Join(st.root, "run", "done", ".tmp-12345")
	if err := atomicWriteFile(leftover, []byte("junk")); err != nil {
		t.Fatalf("write leftover: %v", err)
	}
	names, err := st.List("run/")
	if err != nil {
		t.Fatalf("List: %v", err)
	}
	if want := []string{"run/done/0-0"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
}

// DirStore.List walks only the prefix's directory: an unreadable sibling
// directory (lost+found on a mount root, say) must not fail the listing of
// another prefix, and a prefix directory nothing was written to yet lists
// nothing.
func TestDirStoreListIgnoresUnreadableSibling(t *testing.T) {
	if os.Geteuid() == 0 {
		t.Skip("running as root: directory permissions are not enforced")
	}
	root := filepath.Join(t.TempDir(), "store")
	st, err := NewDirStore(root)
	if err != nil {
		t.Fatalf("NewDirStore: %v", err)
	}
	if err := st.Put("run/done/0-0", []byte("x")); err != nil {
		t.Fatalf("Put: %v", err)
	}
	locked := filepath.Join(root, "lost+found")
	if err := os.Mkdir(locked, 0o000); err != nil {
		t.Fatalf("mkdir: %v", err)
	}
	t.Cleanup(func() { os.Chmod(locked, 0o755) })
	names, err := st.List("run/done/")
	if err != nil {
		t.Fatalf("List beside an unreadable directory: %v", err)
	}
	if want := []string{"run/done/0-0"}; !reflect.DeepEqual(names, want) {
		t.Fatalf("List = %v, want %v", names, want)
	}
	if names, err := st.List("run/claim/"); err != nil || len(names) != 0 {
		t.Fatalf("List of an unwritten prefix = %v, %v; want nothing", names, err)
	}
}
