package mote

// CRC16 is CRC-16/CCITT-FALSE (polynomial 0x1021, init 0xFFFF, no
// reflection) — the frame check sequence low-power radio hardware
// (IEEE 802.15.4) already computes. The CTP2 uplink frame trailer
// (package trace) and the CTCK checkpoint image both use it rather than
// inventing a checksum. It is table-driven, one lookup per byte.
func CRC16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crc16Table[byte(crc>>8)^b]
	}
	return crc
}

// crc16Table[i] is the CRC register after shifting byte i through the
// polynomial from a zero register.
var crc16Table = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for k := 0; k < 8; k++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return t
}()
