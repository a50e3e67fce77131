package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/pattern"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

// sobelFilterX is the 3x3 Sobel operator in the X direction.
var sobelFilterX = []float32{-1, 0, 1, -2, 0, 2, -1, 0, 1}

// SobelKernel builds the Sobel-X kernel. constFilter selects where the
// filter coefficients live: the OpenCL implementation of the paper keeps
// them in constant memory, the CUDA one reads them from global memory —
// the difference behind Fig. 8 and the Sobel outlier of Fig. 3.
func SobelKernel(constFilter bool) *kir.Kernel {
	b := kir.NewKernel("sobel")
	img := b.GlobalBuffer("img", kir.F32)
	var filt kir.Buf
	if constFilter {
		filt = b.ConstBuffer("filt", kir.F32)
	} else {
		filt = b.GlobalBuffer("filt", kir.F32)
	}
	out := b.GlobalBuffer("out", kir.F32)
	w := b.ScalarParam("w", kir.U32)
	h := b.ScalarParam("h", kir.U32)

	x := b.Declare("x", b.GlobalIDX())
	y := b.Declare("y", b.GlobalIDY())
	inside := kir.LAnd(
		kir.LAnd(kir.Ge(x, kir.U(1)), kir.Lt(x, kir.Sub(w, kir.U(1)))),
		kir.LAnd(kir.Ge(y, kir.U(1)), kir.Lt(y, kir.Sub(h, kir.U(1)))))
	b.If(inside, func() {
		sum := b.Declare("sum", kir.F(0))
		b.ForUnroll("fy", kir.U(0), kir.U(3), kir.U(1), kir.UnrollFull, func(fy kir.Expr) {
			b.ForUnroll("fx", kir.U(0), kir.U(3), kir.U(1), kir.UnrollFull, func(fx kir.Expr) {
				row := kir.Sub(kir.Add(y, fy), kir.U(1))
				col := kir.Sub(kir.Add(x, fx), kir.U(1))
				pix := b.Load(img, kir.Add(kir.Mul(row, w), col))
				coef := b.Load(filt, kir.Add(kir.Mul(fy, kir.U(3)), fx))
				b.Assign(sum, kir.Add(sum, kir.Mul(pix, coef)))
			})
		})
		b.Store(out, kir.Add(kir.Mul(y, w), x), sum)
	})
	return b.MustBuild()
}

// sobelRef computes the host reference.
func sobelRef(img []float32, w, h int) []float32 {
	out := make([]float32, w*h)
	for y := 1; y < h-1; y++ {
		for x := 1; x < w-1; x++ {
			var sum float32
			for fy := 0; fy < 3; fy++ {
				for fx := 0; fx < 3; fx++ {
					sum += img[(y+fy-1)*w+(x+fx-1)] * sobelFilterX[fy*3+fx]
				}
			}
			out[y*w+x] = sum
		}
	}
	return out
}

// sobelFilterWords is sobelFilterX as the words Write uploads.
var sobelFilterWords = F32Words(sobelFilterX)

// sobelData is Sobel's host side at one image shape.
type sobelData struct {
	img  []uint32 // the grey image, in words
	want []float32
}

// sobelHost builds the image and the reference filter output.
func sobelHost(s pattern.Shape) *sobelData {
	img := workload.GrayImage(s.W, s.H, 11)
	return &sobelData{img: F32Words(img), want: sobelRef(img, s.W, s.H)}
}

// sobelOutput filters img on the device and returns the output image. An
// empty cfg.Pattern runs the hand-written kernel, whose filter placement is
// cfg.UseConstant; a schedule runs the pattern lowering, whose ConstCoeff
// flag is the pattern-layer spelling of the same choice.
func sobelOutput(d Driver, cfg Config, img []uint32, w, h int) ([]uint32, error) {
	if cfg.Pattern != "" {
		l, bufs, err := runLowered(d, "Sobel", cfg, map[string][]uint32{"img": img})
		if err != nil {
			return nil, err
		}
		return readWords(d, bufs[l.Out], w*h)
	}
	mod, err := d.Build(SobelKernel(cfg.UseConstant))
	if err != nil {
		return nil, err
	}
	imgBuf, err := allocWrite(d, img)
	if err != nil {
		return nil, err
	}
	filtBuf, err := allocWrite(d, sobelFilterWords)
	if err != nil {
		return nil, err
	}
	outBuf, err := allocZero(d, w*h)
	if err != nil {
		return nil, err
	}
	d.ResetTimer()
	if err := d.Launch(mod, "sobel", sim.Dim3{X: (w + 15) / 16, Y: (h + 15) / 16}, sim.Dim3{X: 16, Y: 16},
		B(imgBuf), B(filtBuf), B(outBuf), V(uint32(w)), V(uint32(h))); err != nil {
		return nil, err
	}
	return readWords(d, outBuf, w*h)
}

// runSobel measures the Sobel benchmark (Table II metric: seconds). The
// variant is selected by cfg.UseConstant, or by cfg.Pattern.
func runSobel(d Driver, cfg Config) *Result {
	shape, _ := PatternShape("Sobel", cfg)
	h := hostData("Sobel", shape, sobelHost)

	got, err := sobelOutput(d, cfg, h.img, shape.W, shape.H)
	if err != nil {
		return abort(d, err)
	}
	return result(d, 0, closeF32(got, h.want, 1e-4))
}
