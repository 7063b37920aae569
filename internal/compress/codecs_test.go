package compress

// The per-codec entry points: what the reference oracles, the fuzz targets
// and the codec tests drive. Programs go through Engine, which calls the
// append/size/decode passes these wrap.

// BDICompress compresses a 64-byte line with the smallest applicable BDI
// encoding. It returns the encoded bytes (first byte is the encoding tag)
// and ok=false when no encoding beats the raw line.
func BDICompress(line []byte) (encoded []byte, ok bool) {
	p := bdiFit(line, LineSize-1)
	if p.enc == BDIUncompressed {
		return nil, false
	}
	return bdiEncode(nil, line, p), true
}

// BDIDecompress reverses BDICompress. It returns an error on a malformed
// encoding.
func BDIDecompress(encoded []byte) ([]byte, error) {
	return decodeLine(AlgoBDI, encoded)
}

// BDISize reports the compressed size in bytes BDI achieves for line, or
// LineSize when the line is incompressible under BDI. Unlike BDICompress
// it allocates nothing: it only plans the encodings.
func BDISize(line []byte) int { return bdiFit(line, LineSize-1).size }

// FPCCompress compresses a 64-byte line with Frequent-Pattern-Compression.
// The returned buffer packs sixteen (3-bit prefix, variable data) codes
// MSB-first; the last byte is zero-padded. FPC always succeeds — in the
// worst case every word is stored uncompressed (16 x 35 bits = 70 bytes),
// in which case ok=false signals the encoding did not beat the raw line.
func FPCCompress(line []byte) (encoded []byte, ok bool) {
	return fpcAppend(make([]byte, 0, 70), line)
}

// FPCDecompress reverses FPCCompress.
func FPCDecompress(encoded []byte) ([]byte, error) {
	return decodeLine(AlgoFPC, encoded)
}

// FPCSize reports the compressed size in bytes FPC achieves for line, or
// LineSize when FPC does not beat the raw line. Unlike FPCCompress it
// allocates nothing: the size needs only the per-word pattern widths.
func FPCSize(line []byte) int { return fpcSize(line, LineSize-1) }

// CPackCompress compresses a 64-byte line. ok is false when the encoding
// does not beat the raw line.
func CPackCompress(line []byte) (encoded []byte, ok bool) {
	// Worst case is 16 uncompressed words: 16 x 34 bits = 68 bytes.
	return cpackAppend(make([]byte, 0, 68), line)
}

// CPackDecompress reverses CPackCompress.
func CPackDecompress(encoded []byte) ([]byte, error) {
	return decodeLine(AlgoCPack, encoded)
}

// CPackSize reports the compressed size CPack achieves, or LineSize when
// it does not beat the raw line. Unlike CPackCompress it allocates
// nothing: it runs the same dictionary walk but only counts code widths.
func CPackSize(line []byte) int { return cpackSize(line, LineSize-1) }
