package lpstore

import (
	"encoding/binary"
	"fmt"
	"os"

	"livepoints/internal/asn1der"
)

// indexLenAt re-reads the stored index length (openFile already validated
// the trailer). A short read must fail loudly: truncating the file at an
// offset derived from a garbage trailer would destroy shard data.
func indexLenAt(f *os.File, size int64) (int64, error) {
	var trailer [trailerLen]byte
	if _, err := f.ReadAt(trailer[:], size-trailerLen); err != nil {
		return 0, fmt.Errorf("lpstore: read trailer: %w", err)
	}
	return int64(binary.LittleEndian.Uint64(trailer[:8])), nil
}

// appendTrailer suffixes an encoded index with its length and the trailer
// magic.
func appendTrailer(idx []byte) []byte {
	out := make([]byte, len(idx)+trailerLen)
	copy(out, idx)
	binary.LittleEndian.PutUint64(out[len(idx):], uint64(len(idx)))
	copy(out[len(idx)+8:], trailerMagic)
	return out
}

// encodeIndex serializes the footer index.
func (st *Store) encodeIndex() []byte {
	b := asn1der.NewBuilder()
	b.Sequence(func(b *asn1der.Builder) {
		b.UTF8String(idxMagic)
		b.UTF8String(st.meta.Benchmark)
		b.Uint64(uint64(st.meta.Count))
		b.Uint64(st.meta.UnitLen)
		b.Uint64(st.meta.WarmLen)
		b.Bool(st.meta.Shuffled)
		b.Uint64(uint64(st.uncompressed))

		shards := make([]byte, shardRecordLen*len(st.shards))
		for i, sh := range st.shards {
			rec := shards[i*shardRecordLen:]
			binary.LittleEndian.PutUint64(rec, uint64(sh.dataOff))
			binary.LittleEndian.PutUint64(rec[8:], uint64(sh.compLen))
			binary.LittleEndian.PutUint64(rec[16:], uint64(sh.uncompLen))
			binary.LittleEndian.PutUint32(rec[24:], uint32(sh.points))
		}
		b.OctetString(shards)

		points := make([]byte, pointRecordLen*len(st.points))
		for i, p := range st.points {
			rec := points[i*pointRecordLen:]
			binary.LittleEndian.PutUint32(rec, uint32(p.shard))
			binary.LittleEndian.PutUint64(rec[4:], uint64(p.off))
			binary.LittleEndian.PutUint32(rec[12:], uint32(p.len))
		}
		b.OctetString(points)

		order := make([]byte, 4*len(st.order))
		for i, p := range st.order {
			binary.LittleEndian.PutUint32(order[i*4:], p)
		}
		b.OctetString(order)
	})
	return b.Bytes()
}

// decodeIndex parses the footer index, which starts at file offset idxOff,
// into the store and validates it.
func (st *Store) decodeIndex(buf []byte, idxOff int64) error {
	d, err := asn1der.NewDecoder(buf).Sequence()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	magic, err := d.UTF8String()
	if err != nil {
		return fmt.Errorf("index: %w", err)
	}
	if magic != idxMagic {
		return fmt.Errorf("index magic %q, want %q", magic, idxMagic)
	}
	if st.meta.Benchmark, err = d.UTF8String(); err != nil {
		return err
	}
	count, err := d.Uint64()
	if err != nil {
		return err
	}
	st.meta.Count = int(count)
	if st.meta.UnitLen, err = d.Uint64(); err != nil {
		return err
	}
	if st.meta.WarmLen, err = d.Uint64(); err != nil {
		return err
	}
	if st.meta.Shuffled, err = d.Bool(); err != nil {
		return err
	}
	uncompressed, err := d.Uint64()
	if err != nil {
		return err
	}
	st.uncompressed = int64(uncompressed)

	shards, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(shards)%shardRecordLen != 0 {
		return fmt.Errorf("shard table length %d not a multiple of %d", len(shards), shardRecordLen)
	}
	st.shards = make([]shardInfo, len(shards)/shardRecordLen)
	for i := range st.shards {
		rec := shards[i*shardRecordLen:]
		st.shards[i] = shardInfo{
			dataOff:   int64(binary.LittleEndian.Uint64(rec)),
			compLen:   int64(binary.LittleEndian.Uint64(rec[8:])),
			uncompLen: int64(binary.LittleEndian.Uint64(rec[16:])),
			points:    int(binary.LittleEndian.Uint32(rec[24:])),
		}
	}

	points, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(points)%pointRecordLen != 0 {
		return fmt.Errorf("point table length %d not a multiple of %d", len(points), pointRecordLen)
	}
	st.points = make([]pointInfo, len(points)/pointRecordLen)
	for i := range st.points {
		rec := points[i*pointRecordLen:]
		st.points[i] = pointInfo{
			shard: int(binary.LittleEndian.Uint32(rec)),
			off:   int64(binary.LittleEndian.Uint64(rec[4:])),
			len:   int(binary.LittleEndian.Uint32(rec[12:])),
		}
	}

	orderBytes, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(orderBytes)%4 != 0 {
		return fmt.Errorf("order table length %d not a multiple of 4", len(orderBytes))
	}
	st.order = make([]uint32, len(orderBytes)/4)
	for i := range st.order {
		st.order[i] = binary.LittleEndian.Uint32(orderBytes[i*4:])
	}
	return st.validate(idxOff)
}

// validate cross-checks the decoded index, which is outside input: nothing
// read from it is used as an offset, a length or an allocation size before
// it has passed here. Shard streams must lie between the file magic and the
// index and declare no more than their bytes could inflate to; within each
// shard, the points' spans in storage order must tile [0, uncompLen) exactly
// — the layout Write produces — so a damaged offset or length is refused
// here instead of selecting the wrong bytes of an intact shard; and the read
// order must be a permutation. Metadata (benchmark, unit and warming
// lengths, the Shuffled flag) has no redundancy to check against.
func (st *Store) validate(idxOff int64) error {
	if len(st.points) != st.meta.Count {
		return fmt.Errorf("index declares %d points, point table has %d", st.meta.Count, len(st.points))
	}
	if len(st.order) != st.meta.Count {
		return fmt.Errorf("order table has %d entries for %d points", len(st.order), st.meta.Count)
	}
	for s, sh := range st.shards {
		if sh.dataOff < int64(len(fileMagic)) || sh.compLen < 0 || sh.compLen > idxOff-sh.dataOff {
			return fmt.Errorf("shard %d stream [%d,+%d) outside the data region [%d,%d)", s, sh.dataOff, sh.compLen, len(fileMagic), idxOff)
		}
		if sh.uncompLen < 0 || sh.uncompLen > maxInflate*sh.compLen {
			return fmt.Errorf("shard %d declares %d bytes inflated from %d", s, sh.uncompLen, sh.compLen)
		}
	}
	perShard := make([]int, len(st.shards))
	end := make([]int64, len(st.shards)) // running end of each shard's spans
	for i, p := range st.points {
		if p.shard < 0 || p.shard >= len(st.shards) {
			return fmt.Errorf("point %d in shard %d of %d", i, p.shard, len(st.shards))
		}
		if p.off != end[p.shard] {
			return fmt.Errorf("point %d starts at %d in shard %d, previous point ends at %d", i, p.off, p.shard, end[p.shard])
		}
		end[p.shard] += int64(p.len)
		perShard[p.shard]++
	}
	for s, sh := range st.shards {
		if perShard[s] != sh.points {
			return fmt.Errorf("shard %d declares %d points, point table has %d", s, sh.points, perShard[s])
		}
		if end[s] != sh.uncompLen {
			return fmt.Errorf("shard %d points cover %d bytes of %d", s, end[s], sh.uncompLen)
		}
	}
	seen := make([]bool, st.meta.Count)
	for _, p := range st.order {
		if int(p) >= st.meta.Count || seen[p] {
			return fmt.Errorf("order table is not a permutation of [0,%d)", st.meta.Count)
		}
		seen[p] = true
	}
	return nil
}
