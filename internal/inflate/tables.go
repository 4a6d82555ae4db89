package inflate

import "math/bits"

// Symbol entries without their code lengths, which build adds.
var (
	litVals  [288]uint32 // literals, end of block, lengths; 286 and 287 are reserved
	distVals [32]uint32  // distances; 30 and 31 are reserved
	clenVals [19]uint32  // code length symbols
)

// The fixed Huffman codes of RFC 1951 §3.2.6.
var (
	fixedLit  [litSize]uint32
	fixedDist [distSize]uint32
)

func init() {
	for s := range litVals {
		switch {
		case s < 256:
			litVals[s] = fLit | uint32(s)<<16
		case s == 256:
			litVals[s] = fEOB
		case s < 265:
			litVals[s] = uint32(s-254) << 16
		case s < 285:
			x := uint32(s-261) / 4
			base := (4+uint32(s-265)%4)<<x + 3
			litVals[s] = base<<16 | x<<8
		case s == 285:
			litVals[s] = 258 << 16
		default:
			litVals[s] = fBad
		}
	}
	for s := range distVals {
		switch {
		case s < 4:
			distVals[s] = uint32(s+1) << 16
		case s < maxDist:
			x := uint32(s-2) / 2
			distVals[s] = ((2+uint32(s)%2)<<x+1)<<16 | x<<8
		default:
			distVals[s] = fBad
		}
	}
	for s := range clenVals {
		clenVals[s] = uint32(s) << 16
	}

	var lens [288]uint8
	for s := range lens {
		switch {
		case s < 144:
			lens[s] = 8
		case s < 256:
			lens[s] = 9
		case s < 280:
			lens[s] = 7
		default:
			lens[s] = 8
		}
	}
	build(fixedLit[:], litBits, lens[:], litVals[:])
	for s := range lens[:32] {
		lens[s] = 5
	}
	build(fixedDist[:], distBits, lens[:32], distVals[:])
}

// build fills t with the decoding table of the code whose lengths lens
// gives symbol by symbol: a primary table indexed by the next tableBits
// input bits and, behind it, a subtable for each primary entry longer
// codes start with, sized to hold those codes (zlib's inflate_table).
// vals[s] is symbol s's entry without its length. build reports whether
// deflate accepts the code, by compress/flate's rule: a complete code, a
// single code of length one, or no code at all; where such a code has no
// codeword the table holds fBad.
func build(t []uint32, tableBits int, lens []uint8, vals []uint32) bool {
	var count [16]int
	for _, l := range lens {
		count[l]++
	}
	count[0] = 0
	maxLen := 15
	for maxLen > 0 && count[maxLen] == 0 {
		maxLen--
	}
	left := 1 // codewords of the current length not yet assigned
	for l := 1; l <= 15; l++ {
		if left = left<<1 - count[l]; left < 0 {
			return false // over-subscribed
		}
	}
	if left > 0 {
		if maxLen > 1 {
			return false // incomplete
		}
		for i := range t[:1<<tableBits] {
			t[i] = fBad
		}
	}

	// The symbols in codeword order: by length, then by symbol.
	var offs [16]int
	for l := 1; l < 15; l++ {
		offs[l+1] = offs[l] + count[l]
	}
	var sorted [288]uint16
	for s, l := range lens {
		if l != 0 {
			sorted[offs[l]] = uint16(s)
			offs[l]++
		}
	}

	// Walk the canonical codewords in order. A codeword's bits arrive
	// first bit first, so it is stored bit-reversed, and an entry fills
	// every slot whose low bits are its codeword. rem[l] counts the
	// codewords of length l not yet placed, the current one included.
	rem := count
	code, i := 0, 0
	next := 1 << tableBits // where the next subtable goes
	sub, subBits, subBase := -1, 0, 0
	for l := 1; l <= maxLen; l++ {
		for ; rem[l] > 0; rem[l]-- {
			e := vals[sorted[i]] | uint32(l)
			i++
			r := int(bits.Reverse16(uint16(code)) >> (16 - l))
			code++
			if l <= tableBits {
				for j := r; j < 1<<tableBits; j += 1 << l {
					t[j] = e
				}
				continue
			}
			if p := r & (1<<tableBits - 1); p != sub {
				// A subtable holds every codeword starting with p: as
				// many index bits as the longest of them needs.
				sub, subBase = p, next
				subBits = l - tableBits
				for n := 1 << subBits; subBits+tableBits < maxLen; subBits++ {
					if n -= rem[subBits+tableBits]; n <= 0 {
						break
					}
					n <<= 1
				}
				next += 1 << subBits
				t[p] = uint32(subBase)<<16 | fSub | uint32(subBits)<<8
			}
			for j := r >> tableBits; j < 1<<subBits; j += 1 << (l - tableBits) {
				t[subBase+j] = e
			}
		}
		code <<= 1
	}
	return true
}
