package workload

import (
	"sync"
	"testing"
)

// getAll calls c.Get(p) from n goroutines at once and returns every
// caller's image and error.
func getAll(c *Programs, p Profile, n int) ([]*Program, []error) {
	progs := make([]*Program, n)
	errs := make([]error, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < n; i++ {
		done.Add(1)
		go func() {
			defer done.Done()
			start.Wait()
			progs[i], errs[i] = c.Get(p)
		}()
	}
	start.Done()
	done.Wait()
	return progs, errs
}

func TestProgramsSingleFlight(t *testing.T) {
	var c Programs
	progs, errs := getAll(&c, DSSQry2(), 8)
	for i := range progs {
		if errs[i] != nil {
			t.Fatalf("caller %d: %v", i, errs[i])
		}
		if progs[i] == nil || progs[i] != progs[0] {
			t.Fatalf("caller %d got image %p, caller 0 got %p: concurrent Gets built more than once", i, progs[i], progs[0])
		}
	}
	if again, err := c.Get(DSSQry2()); err != nil || again != progs[0] {
		t.Fatalf("later Get = %p, %v; want the cached %p", again, err, progs[0])
	}
	if n := c.Len(); n != 1 {
		t.Errorf("Len = %d, want 1", n)
	}
}

func TestProgramsKeyedByFullProfile(t *testing.T) {
	var c Programs
	a := DSSQry2()
	b := a
	b.Seed++
	pa, err := c.Get(a)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := c.Get(b)
	if err != nil {
		t.Fatal(err)
	}
	if pa == pb {
		t.Fatal("profiles sharing a Name but not a Seed got the same image")
	}
	if pa.Profile != a || pb.Profile != b {
		t.Fatal("an image was built from the wrong profile")
	}
	want, err := BuildProgram(b)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Funcs {
		if pb.Funcs[i].Base != want.Funcs[i].Base || pb.Funcs[i].Instrs != want.Funcs[i].Instrs {
			t.Fatalf("cached image func %d differs from a fresh build of its profile", i)
		}
	}
	if n := c.Len(); n != 2 {
		t.Errorf("Len = %d, want 2", n)
	}
}

func TestProgramsBuildErrorReachesEveryCaller(t *testing.T) {
	var c Programs
	bad := DSSQry2()
	bad.TxTypes = 0
	_, want := BuildProgram(bad)
	if want == nil {
		t.Fatal("invalid profile built")
	}
	progs, errs := getAll(&c, bad, 8)
	for i := range errs {
		if errs[i] == nil || errs[i].Error() != want.Error() {
			t.Errorf("caller %d: err = %v, want %v", i, errs[i], want)
		}
		if progs[i] != nil {
			t.Errorf("caller %d got an image for an invalid profile", i)
		}
	}
	if _, err := c.Get(bad); err == nil {
		t.Error("later Get of an invalid profile returned no error")
	}
}
