package bench

import "math"

func f32bits(f float32) uint32 { return math.Float32bits(f) }
func bitsF32(w uint32) float32 { return math.Float32frombits(w) }

// F32Words converts floats to the raw words Driver.Write copies.
func F32Words(src []float32) []uint32 {
	out := make([]uint32, len(src))
	for i, f := range src {
		out[i] = math.Float32bits(f)
	}
	return out
}

func wordsF32(src []uint32) []float32 {
	out := make([]float32, len(src))
	for i, w := range src {
		out[i] = math.Float32frombits(w)
	}
	return out
}

// allocWrite uploads words into a fresh allocation.
func allocWrite(d Driver, words []uint32) (Buf, error) {
	b, err := d.Alloc(uint32(4 * len(words)))
	if err != nil {
		return Buf{}, err
	}
	if err := d.Write(b, words); err != nil {
		return Buf{}, err
	}
	return b, nil
}

// allocWriteF uploads floats into a fresh allocation.
func allocWriteF(d Driver, f []float32) (Buf, error) {
	return allocWrite(d, F32Words(f))
}

// allocZero allocates n zeroed words.
func allocZero(d Driver, n int) (Buf, error) {
	return allocWrite(d, make([]uint32, n))
}

// readWords downloads n words.
func readWords(d Driver, b Buf, n int) ([]uint32, error) {
	out := make([]uint32, n)
	if err := d.Read(out, b); err != nil {
		return nil, err
	}
	return out, nil
}

// readF32 downloads n floats.
func readF32(d Driver, b Buf, n int) ([]float32, error) {
	w, err := readWords(d, b, n)
	if err != nil {
		return nil, err
	}
	return wordsF32(w), nil
}
