package bench

import (
	"slices"

	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// DXTCKernel builds a range-fit DXT1-style compressor: one work-item per
// 4x4 texel block. It stages the block's channels in per-thread local
// arrays (a deliberately register/local-heavy kernel — DXTC is the Table VI
// benchmark that exhausts the Cell/BE local store), finds the colour-space
// bounding box, and quantises every texel to a 2-bit index on the box
// diagonal. The output is two words per block: packed endpoints and packed
// indices.
func DXTCKernel() *kir.Kernel {
	b := kir.NewKernel("dxtc")
	img := b.GlobalBuffer("img", kir.U32)
	out := b.GlobalBuffer("out", kir.U32)
	w := b.ScalarParam("w", kir.U32)
	nblocks := b.ScalarParam("nblocks", kir.U32)
	lr := b.LocalArray("lr", kir.U32, 16)
	lg := b.LocalArray("lg", kir.U32, 16)
	lb := b.LocalArray("lb", kir.U32, 16)

	bid := b.Declare("bid", b.GlobalIDX())
	b.If(kir.Lt(bid, nblocks), func() {
		wblocks := b.Declare("wblocks", kir.Div(w, kir.U(4)))
		bx := b.Declare("bx", kir.Rem(bid, wblocks))
		by := b.Declare("by", kir.Div(bid, wblocks))
		origin := b.Declare("origin", kir.Add(kir.Mul(kir.Mul(by, kir.U(4)), w), kir.Mul(bx, kir.U(4))))

		minR := b.Declare("minR", kir.U(255))
		minG := b.Declare("minG", kir.U(255))
		minB := b.Declare("minB", kir.U(255))
		maxR := b.Declare("maxR", kir.U(0))
		maxG := b.Declare("maxG", kir.U(0))
		maxB := b.Declare("maxB", kir.U(0))

		b.For("t", kir.U(0), kir.U(16), kir.U(1), func(t kir.Expr) {
			px := b.Declare("px", b.Load(img, kir.Add(origin,
				kir.Add(kir.Mul(kir.Div(t, kir.U(4)), w), kir.Rem(t, kir.U(4))))))
			r := b.Declare("r", kir.And(px, kir.U(0xff)))
			g := b.Declare("g", kir.And(kir.Shr(px, kir.U(8)), kir.U(0xff)))
			bl := b.Declare("bl", kir.And(kir.Shr(px, kir.U(16)), kir.U(0xff)))
			b.Store(lr, t, r)
			b.Store(lg, t, g)
			b.Store(lb, t, bl)
			b.Assign(minR, kir.Min(minR, r))
			b.Assign(minG, kir.Min(minG, g))
			b.Assign(minB, kir.Min(minB, bl))
			b.Assign(maxR, kir.Max(maxR, r))
			b.Assign(maxG, kir.Max(maxG, g))
			b.Assign(maxB, kir.Max(maxB, bl))
		})

		dr := b.Declare("dr", kir.Sub(maxR, minR))
		dg := b.Declare("dg", kir.Sub(maxG, minG))
		db := b.Declare("db", kir.Sub(maxB, minB))
		len2 := b.Declare("len2", kir.Add(kir.Add(kir.Mul(dr, dr), kir.Mul(dg, dg)), kir.Mul(db, db)))
		len2c := b.Declare("len2c", kir.Max(len2, kir.U(1)))

		// Endpoints packed 5:6:5 style (here 8:8:8 truncated for clarity).
		c0 := b.Declare("c0", kir.Or(kir.Or(maxR, kir.Shl(maxG, kir.U(8))), kir.Shl(maxB, kir.U(16))))
		c1 := b.Declare("c1", kir.Or(kir.Or(minR, kir.Shl(minG, kir.U(8))), kir.Shl(minB, kir.U(16))))

		idxWord := b.Declare("idxWord", kir.U(0))
		b.For("t", kir.U(0), kir.U(16), kir.U(1), func(t kir.Expr) {
			pr := b.Load(lr, t)
			pg := b.Load(lg, t)
			pb := b.Load(lb, t)
			dot := b.Declare("dot", kir.Add(kir.Add(
				kir.Mul(kir.Sub(pr, minR), dr),
				kir.Mul(kir.Sub(pg, minG), dg)),
				kir.Mul(kir.Sub(pb, minB), db)))
			level := b.Declare("level", kir.Min(kir.U(3),
				kir.Div(kir.Add(kir.Mul(dot, kir.U(3)), kir.Div(len2c, kir.U(2))), len2c)))
			b.Assign(idxWord, kir.Or(idxWord, kir.Shl(level, kir.Mul(t, kir.U(2)))))
		})

		b.Store(out, kir.Mul(bid, kir.U(2)), kir.Or(c0, kir.Shl(kir.And(c1, kir.U(0xff)), kir.U(24))))
		b.Store(out, kir.Add(kir.Mul(bid, kir.U(2)), kir.U(1)), idxWord)
	})
	return b.MustBuild()
}

// dxtcRef runs the identical integer algorithm on the host.
func dxtcRef(img []uint32, w, h int) []uint32 {
	wb, hb := w/4, h/4
	out := make([]uint32, wb*hb*2)
	for bid := 0; bid < wb*hb; bid++ {
		bx, by := bid%wb, bid/wb
		origin := by*4*w + bx*4
		var lr, lg, lb [16]uint32
		minC := [3]uint32{255, 255, 255}
		maxC := [3]uint32{0, 0, 0}
		for t := 0; t < 16; t++ {
			px := img[origin+(t/4)*w+t%4]
			c := [3]uint32{px & 0xff, (px >> 8) & 0xff, (px >> 16) & 0xff}
			lr[t], lg[t], lb[t] = c[0], c[1], c[2]
			for k := 0; k < 3; k++ {
				if c[k] < minC[k] {
					minC[k] = c[k]
				}
				if c[k] > maxC[k] {
					maxC[k] = c[k]
				}
			}
		}
		dr, dg, db := maxC[0]-minC[0], maxC[1]-minC[1], maxC[2]-minC[2]
		len2 := dr*dr + dg*dg + db*db
		if len2 < 1 {
			len2 = 1
		}
		c0 := maxC[0] | maxC[1]<<8 | maxC[2]<<16
		c1 := minC[0] | minC[1]<<8 | minC[2]<<16
		var idxWord uint32
		for t := 0; t < 16; t++ {
			dot := (lr[t]-minC[0])*dr + (lg[t]-minC[1])*dg + (lb[t]-minC[2])*db
			level := (dot*3 + len2/2) / len2
			if level > 3 {
				level = 3
			}
			idxWord |= level << (uint(t) * 2)
		}
		out[bid*2] = c0 | (c1&0xff)<<24
		out[bid*2+1] = idxWord
	}
	return out
}

// dxtcData is DXTC's host side at one image size.
type dxtcData struct {
	img, want []uint32 // RGBA texels; two words per compressed block
}

// dxtcHost builds the image and its reference compression.
func dxtcHost(wh [2]int) *dxtcData {
	img := workload.RGBAImage(wh[0], wh[1], 53)
	return &dxtcData{img: img, want: dxtcRef(img, wh[0], wh[1])}
}

// runDXTC measures DXT compression throughput in MPixels/sec (Table II).
func runDXTC(d Driver, cfg Config) *Result {
	w := cfg.scale(512)
	h := cfg.scale(512)
	if w < 64 {
		w, h = 64, 64
	}
	w, h = (w/4)*4, (h/4)*4
	host := hostData("DXTC", [2]int{w, h}, dxtcHost)
	nblocks := (w / 4) * (h / 4)

	k := DXTCKernel()
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	imgBuf, err := allocWrite(d, host.img)
	if err != nil {
		return abort(d, err)
	}
	outBuf, err := allocZero(d, nblocks*2)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	block := 64
	grid := sim.Dim3{X: (nblocks + block - 1) / block, Y: 1}
	if err := d.Launch(mod, "dxtc", grid, sim.Dim3{X: block, Y: 1},
		B(imgBuf), B(outBuf), V(uint32(w)), V(uint32(nblocks))); err != nil {
		return abort(d, err)
	}

	got, err := readWords(d, outBuf, nblocks*2)
	if err != nil {
		return abort(d, err)
	}
	return result(d, float64(w*h), slices.Equal(got, host.want))
}
