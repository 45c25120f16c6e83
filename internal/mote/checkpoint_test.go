package mote

import (
	"errors"
	"reflect"
	"testing"
)

func sampleCheckpoint() *Checkpoint {
	ck := &Checkpoint{
		PC:           42,
		SP:           4000,
		Cycle:        123456789,
		Depth:        2,
		InvSinceCkpt: 3,
		TraceLen:     77,
		Pred:         []byte{0, 1, 2, 3},
		Mem:          make([]uint16, 128),
	}
	for i := range ck.Regs {
		ck.Regs[i] = uint16(i * 257)
	}
	for i := range ck.Mem {
		ck.Mem[i] = uint16(i*31 + 7)
	}
	return ck
}

func TestCheckpointRoundTrip(t *testing.T) {
	ck := sampleCheckpoint()
	img := ck.encode()
	got, err := decodeCheckpoint(img)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(ck, got) {
		t.Errorf("round trip diverges:\n%+v\n%+v", ck, got)
	}
	// Re-encoding the decoded image must reproduce the bytes.
	if !reflect.DeepEqual(img, got.encode()) {
		t.Error("re-encode diverges from original image")
	}
}

func TestCheckpointDecodeRejects(t *testing.T) {
	img := sampleCheckpoint().encode()

	// Truncations at every prefix length must error, never panic.
	for n := 0; n < len(img); n++ {
		if _, err := decodeCheckpoint(img[:n]); err == nil {
			t.Fatalf("truncated image (%d bytes) decoded", n)
		}
	}
	// Trailing garbage is a length mismatch.
	if _, err := decodeCheckpoint(append(append([]byte{}, img...), 0)); err == nil {
		t.Error("trailing byte accepted")
	}
	// Any single bit flip must fail the CRC (or a structural check).
	for i := 0; i < len(img); i++ {
		mut := append([]byte{}, img...)
		mut[i] ^= 0x10
		if _, err := decodeCheckpoint(mut); err == nil {
			t.Fatalf("bit flip at byte %d accepted", i)
		}
	}
	// Wrong version.
	mut := append([]byte{}, img...)
	mut[4] = 9
	if _, err := decodeCheckpoint(mut); err == nil || errors.Is(err, ErrCorruptCheckpoint) {
		t.Errorf("version check should fail structurally, got %v", err)
	}
}

// FuzzCheckpointDecode: arbitrary bytes must either fail decode or yield
// a checkpoint that re-encodes to the exact input — a torn or bit-flipped
// image can never restore garbage state.
func FuzzCheckpointDecode(f *testing.F) {
	img := sampleCheckpoint().encode()
	f.Add(img)
	short := append([]byte{}, img[:len(img)/2]...) // torn flash write
	f.Add(short)
	flip := append([]byte{}, img...)
	flip[20] ^= 0x80
	f.Add(flip)
	f.Add((&Checkpoint{}).encode())

	f.Fuzz(func(t *testing.T, data []byte) {
		ck, err := decodeCheckpoint(data)
		if err != nil {
			return
		}
		if !reflect.DeepEqual(ck.encode(), data) {
			t.Fatal("accepted image does not round-trip")
		}
	})
}
