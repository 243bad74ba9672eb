package masort

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/memadapt/masort/internal/faultinject"
	"github.com/memadapt/masort/internal/pagecodec"
)

// TestStripedStoreDistribution pins the striping layout: pages go
// round-robin across devices with the cursor carried across batches, so
// two devices each end up with half of six pages regardless of batch
// boundaries — and every page reads back from the right device.
func TestStripedStoreDistribution(t *testing.T) {
	store, err := NewStripedStore(t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if store.Devices() != 2 {
		t.Fatalf("Devices = %d, want 2", store.Devices())
	}
	id, _ := store.Create()
	var want []Page
	mk := func(k uint64) Page { return Page{{Key: k, Payload: []byte{byte(k)}}} }
	for _, batch := range [][]Page{
		{mk(0), mk(1), mk(2)}, // odd batch: cursor must carry into the next
		{mk(3), mk(4), mk(5)},
	} {
		want = append(want, batch...)
		tok, err := store.Append(id, batch)
		if err != nil || tok.Wait() != nil {
			t.Fatal("append failed")
		}
	}
	if got := store.Pages(id); got != 6 {
		t.Fatalf("Pages = %d, want 6", got)
	}
	// With the cursor carried across batches each device holds exactly 3
	// pages (dev0: global 0,2,4; dev1: global 1,3,5): its run file is those
	// three frames and nothing else.
	for dev, dir := range store.Dirs() {
		var wantSize int64
		for p := dev; p < len(want); p += store.Devices() {
			wantSize += int64(pagecodec.EncodedSizeSum(want[p]))
		}
		fi, err := os.Stat(filepath.Join(dir, fmt.Sprintf("run-%06d.bin", id)))
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != wantSize {
			t.Fatalf("device %d holds %d bytes, want %d (3 pages)", dev, fi.Size(), wantSize)
		}
	}
	for p := range want {
		pg, err := store.ReadAsync(id, p).Wait()
		if err != nil {
			t.Fatalf("page %d: %v", p, err)
		}
		if len(pg) != 1 || pg[0].Key != want[p][0].Key {
			t.Fatalf("page %d came back as key %d", p, pg[0].Key)
		}
	}
}

// TestStripedStoreMergedDurabilityToken (the name is the parent's, when the
// token merged per-device watermarks): a batch is in the index once every
// device has its share and not before. While device 1 holds its write back
// Append has not returned, Pages reads the old count and no page of the batch
// can be asked for, device 0's included, whose bytes are in its file already.
func TestStripedStoreMergedDurabilityToken(t *testing.T) {
	gate := newWriteGate()
	gate.shut.Store(false)
	store, err := NewStoreConfig().WithDeviceFaults(func(dev int) FaultHooks {
		if dev != 1 {
			return nil
		}
		return gate
	}).Striped(t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	mustAppend(t, store, id, []Page{{{Key: 1}}, {{Key: 2}}})

	gate.shut.Store(true)
	appended := goAppend(store, id, []Page{{{Key: 3}}, {{Key: 4}}, {{Key: 5}}})
	gate.awaitHeld(t, 1)
	stillRunning(t, "Append", appended)
	if got := store.Pages(id); got != 2 {
		t.Fatalf("Pages = %d while device 1's write is held, want 2", got)
	}
	for p := 2; p < 5; p++ {
		if _, err := store.ReadAsync(id, p).Wait(); err == nil || !strings.Contains(err.Error(), "no page") {
			t.Fatalf("page %d while device 1's write is held: %v, want \"no page\"", p, err)
		}
	}
	gate.release()
	res := <-appended
	if res.err != nil {
		t.Fatal(res.err)
	}
	returnsPromptly(t, "the token of an Append that has returned", res.tok.Wait)
	if got := store.Pages(id); got != 5 {
		t.Fatalf("Pages = %d, want 5", got)
	}
	for p := 0; p < 5; p++ {
		pg, err := store.ReadAsync(id, p).Wait()
		if err != nil || len(pg) != 1 || pg[0].Key != uint64(p+1) {
			t.Fatalf("page %d: %+v, %v", p, pg, err)
		}
	}
}

// TestStripedStoreDeviceFaultTargeted uses WithDeviceFaults to corrupt
// exactly one stripe: reads of pages on the sick device fail with
// ErrCorruptPage while its neighbors' pages are untouched.
func TestStripedStoreDeviceFaultTargeted(t *testing.T) {
	sick := 1
	store, err := NewStoreConfig().WithDeviceFaults(func(dev int) FaultHooks {
		if dev != sick {
			return nil
		}
		return faultinject.New(faultinject.Rule{Op: faultinject.Read, Every: 1,
			Fault: faultinject.Fault{FlipBit: 13}})
	}).Striped(t.TempDir(), t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	batch := []Page{{{Key: 10}}, {{Key: 11}}, {{Key: 12}}} // page i -> device i
	tok, err := store.Append(id, batch)
	if err != nil || tok.Wait() != nil {
		t.Fatal("append failed")
	}
	for p := range batch {
		pg, err := store.ReadAsync(id, p).Wait()
		if p == sick {
			if !errors.Is(err, ErrCorruptPage) {
				t.Fatalf("sick device page %d: err = %v, want ErrCorruptPage chain", p, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("healthy device page %d: %v", p, err)
		}
		if pg[0].Key != batch[p][0].Key {
			t.Fatalf("healthy device page %d: wrong key %d", p, pg[0].Key)
		}
	}
}

// TestStripedStoreDeviceFailureBreaksRun pins run-granularity failure: one
// device's permanent write failure surfaces on the merged token and breaks
// the whole striped run for appends and reads, while Free and Close still
// work.
func TestStripedStoreDeviceFailureBreaksRun(t *testing.T) {
	store, err := NewStoreConfig().WithDeviceFaults(func(dev int) FaultHooks {
		if dev != 2 {
			return nil
		}
		return hookFuncs{beforeWrite: func(off int64, b []byte) (int, error) {
			return -1, faultinject.Permanent("controller gone")
		}}
	}).Striped(t.TempDir(), t.TempDir(), t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	id, _ := store.Create()
	tok, err := store.Append(id, []Page{{{Key: 1}}, {{Key: 2}}, {{Key: 3}}})
	if err != nil {
		t.Fatal(err)
	}
	if werr := tok.Wait(); !errors.Is(werr, ErrStoreFailed) {
		t.Fatalf("merged token = %v, want ErrStoreFailed chain", werr)
	}
	if _, err := store.Append(id, []Page{{{Key: 4}}}); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("append to broken run = %v, want ErrStoreFailed chain", err)
	}
	if _, err := store.ReadAsync(id, 0).Wait(); !errors.Is(err, ErrStoreFailed) {
		t.Fatalf("read of broken run = %v, want ErrStoreFailed chain", err)
	}
	if err := store.Free(id); err != nil {
		t.Fatalf("Free of broken run: %v", err)
	}
	if store.Live() != 0 {
		t.Fatalf("%d runs leaked", store.Live())
	}
}
