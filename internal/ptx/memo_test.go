package ptx

import (
	"sync"
	"testing"
)

// TestMemoOneValuePerKey: callers racing on a cold key may each build, but
// all of them get the one value kept, and later callers build nothing.
func TestMemoOneValuePerKey(t *testing.T) {
	type key struct{ n int }
	k := &Kernel{Name: "m"}
	got := make([]any, 16)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = k.Memo(key{1}, func() any { return new(int) })
		}(i)
	}
	wg.Wait()
	for i := range got {
		if got[i] != got[0] {
			t.Fatalf("caller %d got a value of its own", i)
		}
	}
	if v := k.Memo(key{1}, func() any { t.Fatal("built a kept key again"); return nil }); v != got[0] {
		t.Fatal("a later caller got another value")
	}
	if k.Memo(key{2}, func() any { return new(int) }) == got[0] {
		t.Fatal("two keys share a value")
	}
}

// TestMemoCopyStartsEmpty: a Kernel copied by value after its original
// memoised something sees none of it, and the original keeps its own.
func TestMemoCopyStartsEmpty(t *testing.T) {
	type key struct{}
	orig := &Kernel{Name: "orig"}
	v := orig.Memo(key{}, func() any { return "orig" })
	cp := *orig
	cp.Name = "copy"
	if got := cp.Memo(key{}, func() any { return "copy" }); got != "copy" {
		t.Fatalf("the copy read %v, its original's value", got)
	}
	if got := orig.Memo(key{}, func() any { return "rebuilt" }); got != v {
		t.Fatalf("the original now reads %v", got)
	}
}
