package livepoint

import (
	"encoding/binary"
	"fmt"

	"livepoints/internal/asn1der"
	"livepoints/internal/bpred"
	"livepoints/internal/csr"
	"livepoints/internal/isa"
)

// SizeBreakdown reports the encoded byte size of each live-point section —
// the data behind Figure 7.
type SizeBreakdown struct {
	Header int // identity, position, window geometry
	Arch   int // registers and PC ("register files, system state")
	Mem    int // memory data (live-state values)
	Text   int // instruction text
	L1I    int
	L1D    int
	L2     int
	TLB    int
	Bpred  int
}

// Total returns the whole encoded size.
func (b SizeBreakdown) Total() int {
	return b.Header + b.Arch + b.Mem + b.Text + b.L1I + b.L1D + b.L2 + b.TLB + b.Bpred
}

// Encode serializes a live-point to ASN.1 DER (§3), returning the bytes and
// the per-section size breakdown.
func Encode(lp *LivePoint) ([]byte, SizeBreakdown) {
	var bd SizeBreakdown
	b := asn1der.NewBuilder()
	b.Sequence(func(b *asn1der.Builder) {
		mark := b.Len()
		b.UTF8String(lp.Benchmark)
		b.Uint64(uint64(lp.Index))
		b.Uint64(lp.Position)
		b.Uint64(lp.WarmLen)
		b.Uint64(lp.UnitLen)
		b.Uint64(lp.FuncWarm)
		b.Bool(lp.Restricted)
		bd.Header = b.Len() - mark

		mark = b.Len()
		b.Context(0, func(b *asn1der.Builder) {
			b.Uint64(lp.Arch.PC)
			regs := make([]byte, 8*isa.NumRegs)
			for i, v := range lp.Arch.Regs {
				binary.LittleEndian.PutUint64(regs[i*8:], v)
			}
			b.OctetString(regs)
		})
		bd.Arch = b.Len() - mark

		mark = b.Len()
		b.Context(1, func(b *asn1der.Builder) {
			b.OctetString(packMem(&lp.Mem))
		})
		bd.Mem = b.Len() - mark

		mark = b.Len()
		b.Context(2, func(b *asn1der.Builder) {
			for _, r := range lp.Text {
				b.Sequence(func(b *asn1der.Builder) {
					b.Uint64(r.StartPC)
					b.OctetString(isa.EncodeText(r.Insts))
				})
			}
		})
		bd.Text = b.Len() - mark

		for i, sr := range lp.Caches {
			mark = b.Len()
			b.Context(3, func(b *asn1der.Builder) { encodeSetRecord(b, sr) })
			switch i {
			case 0:
				bd.L1I = b.Len() - mark
			case 1:
				bd.L1D = b.Len() - mark
			default:
				bd.L2 = b.Len() - mark
			}
		}
		mark = b.Len()
		for _, sr := range lp.TLBs {
			b.Context(4, func(b *asn1der.Builder) { encodeSetRecord(b, sr) })
		}
		bd.TLB = b.Len() - mark

		mark = b.Len()
		for _, ps := range lp.Preds {
			b.Context(5, func(b *asn1der.Builder) {
				encodePredConfig(b, ps.Cfg)
				b.OctetString(ps.Data)
			})
		}
		bd.Bpred = b.Len() - mark
	})
	// The outer SEQUENCE envelope (tag and length octets) counts toward
	// the header.
	bd.Header += b.Len() - bd.Total()
	return b.Bytes(), bd
}

// Decode parses a live-point from its DER encoding into a fresh LivePoint.
func Decode(buf []byte) (*LivePoint, error) {
	lp := &LivePoint{}
	if err := DecodeInto(lp, buf); err != nil {
		return nil, err
	}
	return lp, nil
}

// DecodeInto parses a live-point from its DER encoding into lp, reusing the
// receiver's backing storage (memory table, text ranges, set-record entry
// slices, predictor snapshots) wherever capacities allow. After the first
// few points of a stream the call performs no heap allocation, which is
// what keeps the load path's fixed cost near zero (§5, Table 2).
//
// The decoded live-point does not alias buf: every variable-length section
// is parsed into, or copied to, lp-owned storage, so callers may recycle
// the blob buffer immediately. On error lp is left partially overwritten
// and must not be used. Strings (benchmark and structure names) are only
// reallocated when their value actually changes between points.
func DecodeInto(lp *LivePoint, buf []byte) error {
	top := asn1der.Over(buf)
	d, err := top.ReadSequence()
	if err != nil {
		return fmt.Errorf("livepoint: decode: %w", err)
	}
	name, err := d.UTF8Bytes()
	if err != nil {
		return err
	}
	internString(&lp.Benchmark, name)
	idx, err := d.Uint64()
	if err != nil {
		return err
	}
	lp.Index = int(idx)
	if lp.Position, err = d.Uint64(); err != nil {
		return err
	}
	if lp.WarmLen, err = d.Uint64(); err != nil {
		return err
	}
	if lp.UnitLen, err = d.Uint64(); err != nil {
		return err
	}
	if lp.FuncWarm, err = d.Uint64(); err != nil {
		return err
	}
	if lp.Restricted, err = d.Bool(); err != nil {
		return err
	}

	ad, err := d.ReadContext(0)
	if err != nil {
		return err
	}
	if lp.Arch.PC, err = ad.Uint64(); err != nil {
		return err
	}
	regs, err := ad.OctetString()
	if err != nil {
		return err
	}
	if len(regs) != 8*isa.NumRegs {
		return fmt.Errorf("livepoint: register block is %d bytes, want %d", len(regs), 8*isa.NumRegs)
	}
	for i := range lp.Arch.Regs {
		lp.Arch.Regs[i] = binary.LittleEndian.Uint64(regs[i*8:])
	}

	md, err := d.ReadContext(1)
	if err != nil {
		return err
	}
	memBytes, err := md.OctetString()
	if err != nil {
		return err
	}
	if len(memBytes)%16 != 0 {
		return fmt.Errorf("livepoint: memory block length %d not a multiple of 16", len(memBytes))
	}
	lp.Mem.setPacked(memBytes)

	td, err := d.ReadContext(2)
	if err != nil {
		return err
	}
	// lp.Text is rebuilt in place: entries in the backing array donate their
	// Insts capacity. The reslice runs to capacity, not the previous length,
	// so a short point between two long ones doesn't orphan the tail slots'
	// storage. Reads of oldText[i] happen before the append that overwrites
	// the shared backing slot, so the aliasing is safe.
	oldText := lp.Text[:cap(lp.Text)]
	lp.Text = lp.Text[:0]
	for td.More() {
		rd, err := td.ReadSequence()
		if err != nil {
			return err
		}
		var r TextRange
		if len(lp.Text) < len(oldText) {
			r = oldText[len(lp.Text)]
		}
		if r.StartPC, err = rd.Uint64(); err != nil {
			return err
		}
		enc, err := rd.OctetString()
		if err != nil {
			return err
		}
		if r.Insts, err = isa.AppendText(r.Insts[:0], enc); err != nil {
			return err
		}
		lp.Text = append(lp.Text, r)
	}

	oldCaches, oldTLBs := lp.Caches[:cap(lp.Caches)], lp.TLBs[:cap(lp.TLBs)]
	oldPreds := lp.Preds[:cap(lp.Preds)]
	lp.Caches, lp.TLBs, lp.Preds = lp.Caches[:0], lp.TLBs[:0], lp.Preds[:0]
	for d.More() {
		tag, err := d.PeekTag()
		if err != nil {
			return err
		}
		switch tag {
		case asn1der.ContextTag(3):
			cd, err := d.ReadContext(3)
			if err != nil {
				return err
			}
			sr := reuseRecord(oldCaches, len(lp.Caches))
			if err := decodeSetRecordInto(sr, &cd); err != nil {
				return err
			}
			lp.Caches = append(lp.Caches, sr)
		case asn1der.ContextTag(4):
			cd, err := d.ReadContext(4)
			if err != nil {
				return err
			}
			sr := reuseRecord(oldTLBs, len(lp.TLBs))
			if err := decodeSetRecordInto(sr, &cd); err != nil {
				return err
			}
			lp.TLBs = append(lp.TLBs, sr)
		case asn1der.ContextTag(5):
			pd, err := d.ReadContext(5)
			if err != nil {
				return err
			}
			var ps PredSnapshot
			if len(lp.Preds) < len(oldPreds) {
				ps = oldPreds[len(lp.Preds)]
			}
			if err := decodePredConfigInto(&ps.Cfg, &pd); err != nil {
				return err
			}
			data, err := pd.OctetString()
			if err != nil {
				return err
			}
			ps.Data = append(ps.Data[:0], data...)
			lp.Preds = append(lp.Preds, ps)
		default:
			return fmt.Errorf("livepoint: unexpected section tag %#02x", tag)
		}
	}
	return nil
}

// internString assigns the byte contents to *s, allocating only when the
// value differs: the string([]byte) on the comparison side of != does not
// escape, so repeated decodes of the same name cost nothing.
func internString(s *string, b []byte) {
	if *s != string(b) {
		*s = string(b)
	}
}

// reuseRecord returns the i'th record of a previous decode for in-place
// reuse, or a fresh one past the previous length.
func reuseRecord(old []*csr.SetRecord, i int) *csr.SetRecord {
	if i < len(old) && old[i] != nil {
		return old[i]
	}
	return &csr.SetRecord{}
}

// packMem serializes the live-state words as sorted (addr, value) pairs.
// Sorting makes encoding deterministic and helps gzip find structure.
func packMem(t *MemTable) []byte {
	es := t.Entries()
	out := make([]byte, 16*len(es))
	for i, e := range es {
		binary.LittleEndian.PutUint64(out[i*16:], e.Addr)
		binary.LittleEndian.PutUint64(out[i*16+8:], e.Val)
	}
	return out
}

func encodeSetRecord(b *asn1der.Builder, sr *csr.SetRecord) {
	b.UTF8String(sr.Cfg.Name)
	b.Uint64(uint64(sr.Cfg.SizeBytes))
	b.Uint64(uint64(sr.Cfg.Assoc))
	b.Uint64(uint64(sr.Cfg.LineBytes))
	b.Uint64(uint64(sr.Cfg.HitLat))
	payload := make([]byte, 17*len(sr.Entries))
	for i, e := range sr.Entries {
		binary.LittleEndian.PutUint64(payload[i*17:], e.Block)
		binary.LittleEndian.PutUint64(payload[i*17+8:], e.Last)
		if e.Dirty {
			payload[i*17+16] = 1
		}
	}
	b.OctetString(payload)
}

func decodeSetRecordInto(sr *csr.SetRecord, d *asn1der.Decoder) error {
	name, err := d.UTF8Bytes()
	if err != nil {
		return err
	}
	internString(&sr.Cfg.Name, name)
	var vals [4]uint64
	for i := range vals {
		if vals[i], err = d.Uint64(); err != nil {
			return err
		}
	}
	sr.Cfg.SizeBytes = int64(vals[0])
	sr.Cfg.Assoc = int(vals[1])
	sr.Cfg.LineBytes = int64(vals[2])
	sr.Cfg.HitLat = int(vals[3])
	payload, err := d.OctetString()
	if err != nil {
		return err
	}
	if len(payload)%17 != 0 {
		return fmt.Errorf("livepoint: set record payload %d not a multiple of 17", len(payload))
	}
	n := len(payload) / 17
	if cap(sr.Entries) < n {
		sr.Entries = make([]csr.Entry, n)
	} else {
		sr.Entries = sr.Entries[:n]
	}
	for i := range sr.Entries {
		sr.Entries[i] = csr.Entry{
			Block: binary.LittleEndian.Uint64(payload[i*17:]),
			Last:  binary.LittleEndian.Uint64(payload[i*17+8:]),
			Dirty: payload[i*17+16] == 1,
		}
	}
	return nil
}

func encodePredConfig(b *asn1der.Builder, cfg bpred.Config) {
	b.UTF8String(cfg.Name)
	b.Uint64(uint64(cfg.Kind))
	b.Uint64(uint64(cfg.TableSize))
	b.Uint64(uint64(cfg.HistBits))
	b.Uint64(uint64(cfg.BTBSets))
	b.Uint64(uint64(cfg.BTBAssoc))
	b.Uint64(uint64(cfg.RASSize))
}

func decodePredConfigInto(cfg *bpred.Config, d *asn1der.Decoder) error {
	name, err := d.UTF8Bytes()
	if err != nil {
		return err
	}
	internString(&cfg.Name, name)
	var vals [6]uint64
	for i := range vals {
		if vals[i], err = d.Uint64(); err != nil {
			return err
		}
	}
	cfg.Kind = bpred.Kind(vals[0])
	cfg.TableSize = int(vals[1])
	cfg.HistBits = int(vals[2])
	cfg.BTBSets = int(vals[3])
	cfg.BTBAssoc = int(vals[4])
	cfg.RASSize = int(vals[5])
	return nil
}
