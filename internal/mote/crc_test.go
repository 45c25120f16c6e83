package mote

import "testing"

// crc16Bitwise is the bit-at-a-time CRC-16/CCITT-FALSE the table-driven
// CRC16 replaced, kept as its differential oracle.
func crc16Bitwise(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc ^= uint16(b) << 8
		for i := 0; i < 8; i++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
	}
	return crc
}

// TestCRC16CheckValue pins the catalogued CRC-16/CCITT-FALSE check value.
func TestCRC16CheckValue(t *testing.T) {
	if got := CRC16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("CRC16(\"123456789\") = %#04x, want 0x29b1", got)
	}
	if got := CRC16(nil); got != 0xFFFF {
		t.Fatalf("CRC16(nil) = %#04x, want the init value 0xffff", got)
	}
}

func TestCRC16MatchesBitwise(t *testing.T) {
	data := make([]byte, 300)
	x := uint32(1)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	for n := 0; n <= len(data); n++ {
		if got, want := CRC16(data[:n]), crc16Bitwise(data[:n]); got != want {
			t.Fatalf("len %d: CRC16 = %#04x, bitwise = %#04x", n, got, want)
		}
	}
}

// FuzzCRC16 compares the table-driven CRC against the bitwise oracle on
// arbitrary bytes.
func FuzzCRC16(f *testing.F) {
	f.Add([]byte("123456789"))
	f.Add([]byte{})
	f.Add([]byte{0xFF, 0x00, 0x80, 0x01})
	f.Fuzz(func(t *testing.T, data []byte) {
		if got, want := CRC16(data), crc16Bitwise(data); got != want {
			t.Fatalf("CRC16(%x) = %#04x, bitwise = %#04x", data, got, want)
		}
	})
}
