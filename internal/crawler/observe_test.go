package crawler

import (
	"crypto/sha256"
	"strings"
	"testing"

	"configvalidator/internal/entity"
)

// countingEntity counts walks and reads, and panics reading panicPath.
type countingEntity struct {
	entity.Entity
	panicPath    string
	walks, reads int
}

func (c *countingEntity) Walk(root string, fn func(entity.FileInfo) error) error {
	c.walks++
	return c.Entity.Walk(root, fn)
}

func (c *countingEntity) ReadFile(path string) ([]byte, error) {
	c.reads++
	if path == c.panicPath {
		panic("disk driver bug")
	}
	return c.Entity.ReadFile(path)
}

func TestObservationWalksAndReadsOnce(t *testing.T) {
	e := &countingEntity{Entity: testEntity(), panicPath: "/etc/fstab"}
	o := Observe(e, []string{"/etc"})
	for i := 0; i < 2; i++ {
		if files, err := o.Walk("/etc"); err != nil || len(files) == 0 {
			t.Fatalf("Walk = %d files, %v", len(files), err)
		}
		data, err := o.Read("/etc/ssh/sshd_config")
		if err != nil || string(data) != "PermitRootLogin no\n" {
			t.Fatalf("Read = %q, %v", data, err)
		}
		if sum, err := o.Sum("/etc/ssh/sshd_config"); err != nil || sum != sha256.Sum256(data) {
			t.Errorf("Sum = %x, %v", sum, err)
		}
		// A panicking ReadFile is that file's error, not the scan's panic.
		if _, err := o.Read("/etc/fstab"); err == nil || !strings.Contains(err.Error(), "read/parse panicked: disk driver bug") {
			t.Errorf("Read of a panicking file: %v", err)
		}
	}
	if _, err := o.Walk("/no/such/dir"); err == nil {
		t.Error("Walk of a missing root succeeded")
	}
	if e.walks != 2 || e.reads != 2 {
		t.Errorf("walks = %d, reads = %d, want 2 and 2: one per root and per file", e.walks, e.reads)
	}
}
