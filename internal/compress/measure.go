package compress

import "fmt"

// MeasurePacked reports the true byte length of a packed payload whose
// buffer may carry trailing padding (e.g. the zero fill of a 32-byte
// sub-rank block). The length is recovered from the leading tag alone:
// BDI encodings have fixed sizes per tag; FPC streams are walked
// prefix-by-prefix. An error means the leading bytes are not a valid
// packed payload.
func MeasurePacked(buf []byte) (int, error) {
	if len(buf) == 0 {
		return 0, fmt.Errorf("compress: empty packed payload")
	}
	switch tag := buf[0]; {
	case tag == byte(BDIZeros):
		return 1, nil
	case tag == byte(BDIRep):
		if len(buf) < 9 {
			return 0, fmt.Errorf("compress: truncated rep payload")
		}
		return 9, nil
	case tag < fpcTag:
		s := bdiByTag[tag]
		if len(buf) < s.size {
			return 0, fmt.Errorf("compress: truncated %s payload (%d < %d)", s.enc, len(buf), s.size)
		}
		return s.size, nil
	case tag == fpcTag:
		n, err := fpcEncodedLen(buf[1:])
		if err != nil {
			return 0, err
		}
		return 1 + n, nil
	case tag == cpackTag:
		n, err := cpackEncodedLen(buf[1:])
		if err != nil {
			return 0, err
		}
		return 1 + n, nil
	default:
		return 0, fmt.Errorf("compress: unknown packed tag %d", tag)
	}
}

// fpcEncodedLen walks an FPC bitstream and reports its byte length.
func fpcEncodedLen(buf []byte) (int, error) {
	r := NewBitReader(buf)
	bits := 0
	for i := 0; i < fpcWords; i++ {
		pat, err := r.ReadBits(3)
		if err != nil {
			return 0, fmt.Errorf("compress: FPC length scan at word %d: %w", i, err)
		}
		need := fpcDataBits[pat]
		if _, err := r.ReadBits(need); err != nil {
			return 0, fmt.Errorf("compress: FPC length scan at word %d: %w", i, err)
		}
		bits += 3 + need
	}
	return (bits + 7) / 8, nil
}
