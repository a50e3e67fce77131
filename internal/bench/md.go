package bench

import (
	"gpucmp/internal/kir"
	"gpucmp/internal/sim"
	"gpucmp/internal/workload"
)

const (
	mdMaxNeigh  = 32
	mdCutSq     = float32(200)
	mdLJ1       = float32(1.5)
	mdLJ2       = float32(0.75)
	mdFlopsPerN = 26 // nominal flops per neighbour interaction (SHOC style)
)

// MDKernel builds the Lennard-Jones force kernel with fixed neighbour
// lists. useTexture routes the irregular position gather through the
// texture cache — the CUDA implementation's native choice that Fig. 4
// quantifies.
func MDKernel(useTexture bool) *kir.Kernel {
	b := kir.NewKernel("lj")
	var posX, posY, posZ kir.Buf
	if useTexture {
		posX = b.TexBuffer("posX", kir.F32)
		posY = b.TexBuffer("posY", kir.F32)
		posZ = b.TexBuffer("posZ", kir.F32)
	} else {
		posX = b.GlobalBuffer("posX", kir.F32)
		posY = b.GlobalBuffer("posY", kir.F32)
		posZ = b.GlobalBuffer("posZ", kir.F32)
	}
	neigh := b.GlobalBuffer("neigh", kir.U32)
	fX := b.GlobalBuffer("fX", kir.F32)
	fY := b.GlobalBuffer("fY", kir.F32)
	fZ := b.GlobalBuffer("fZ", kir.F32)
	atoms := b.ScalarParam("atoms", kir.U32)

	i := b.Declare("i", b.GlobalIDX())
	b.If(kir.Lt(i, atoms), func() {
		xi := b.Declare("xi", b.Load(posX, i))
		yi := b.Declare("yi", b.Load(posY, i))
		zi := b.Declare("zi", b.Load(posZ, i))
		fx := b.Declare("fx", kir.F(0))
		fy := b.Declare("fy", kir.F(0))
		fz := b.Declare("fz", kir.F(0))
		b.For("j", kir.U(0), kir.U(mdMaxNeigh), kir.U(1), func(j kir.Expr) {
			jn := b.Declare("jn", b.Load(neigh, kir.Add(kir.Mul(j, atoms), i)))
			dx := b.Declare("dx", kir.Sub(xi, b.Load(posX, jn)))
			dy := b.Declare("dy", kir.Sub(yi, b.Load(posY, jn)))
			dz := b.Declare("dz", kir.Sub(zi, b.Load(posZ, jn)))
			r2 := b.Declare("r2", kir.Add(kir.Add(kir.Mul(dx, dx), kir.Mul(dy, dy)), kir.Mul(dz, dz)))
			b.If(kir.Lt(r2, kir.F(mdCutSq)), func() {
				r2inv := b.Declare("r2inv", kir.Div(kir.F(1), r2))
				r6inv := b.Declare("r6inv", kir.Mul(kir.Mul(r2inv, r2inv), r2inv))
				force := b.Declare("force", kir.Mul(kir.Mul(r2inv, r6inv),
					kir.Sub(kir.Mul(kir.F(mdLJ1), r6inv), kir.F(mdLJ2))))
				b.Assign(fx, kir.Add(fx, kir.Mul(dx, force)))
				b.Assign(fy, kir.Add(fy, kir.Mul(dy, force)))
				b.Assign(fz, kir.Add(fz, kir.Mul(dz, force)))
			})
		})
		b.Store(fX, i, fx)
		b.Store(fY, i, fy)
		b.Store(fZ, i, fz)
	})
	return b.MustBuild()
}

// mdRef computes reference forces on the host in float32 with the same
// operation order as the kernel.
func mdRef(s *workload.MDSystem) (fx, fy, fz []float32) {
	fx = make([]float32, s.Atoms)
	fy = make([]float32, s.Atoms)
	fz = make([]float32, s.Atoms)
	for i := 0; i < s.Atoms; i++ {
		var ax, ay, az float32
		for j := 0; j < s.MaxNeigh; j++ {
			jn := s.Neighbors[j*s.Atoms+i]
			dx := s.X[i] - s.X[jn]
			dy := s.Y[i] - s.Y[jn]
			dz := s.Z[i] - s.Z[jn]
			r2 := dx*dx + dy*dy + dz*dz
			if r2 < mdCutSq {
				r2inv := 1 / r2
				r6inv := r2inv * r2inv * r2inv
				force := r2inv * r6inv * (mdLJ1*r6inv - mdLJ2)
				ax += dx * force
				ay += dy * force
				az += dz * force
			}
		}
		fx[i], fy[i], fz[i] = ax, ay, az
	}
	return fx, fy, fz
}

// mdData is MD's host side at one atom count.
type mdData struct {
	x, y, z, neigh []uint32 // positions and neighbour lists, in words
	fx, fy, fz     []float32
}

// mdHost builds the system and its reference forces.
func mdHost(atoms int) *mdData {
	sys := workload.RandomMD(atoms, mdMaxNeigh, 23)
	h := &mdData{x: F32Words(sys.X), y: F32Words(sys.Y), z: F32Words(sys.Z), neigh: sys.Neighbors}
	h.fx, h.fy, h.fz = mdRef(sys)
	return h
}

// runMD measures molecular-dynamics throughput in GFlops/sec (Table II).
func runMD(d Driver, cfg Config) *Result {
	atoms := cfg.scale(16384)
	h := hostData("MD", atoms, mdHost)

	k := MDKernel(cfg.UseTexture)
	mod, err := d.Build(k)
	if err != nil {
		return abort(d, err)
	}
	px, err := allocWrite(d, h.x)
	if err != nil {
		return abort(d, err)
	}
	py, err := allocWrite(d, h.y)
	if err != nil {
		return abort(d, err)
	}
	pz, err := allocWrite(d, h.z)
	if err != nil {
		return abort(d, err)
	}
	nb, err := allocWrite(d, h.neigh)
	if err != nil {
		return abort(d, err)
	}
	ofx, err := allocZero(d, atoms)
	if err != nil {
		return abort(d, err)
	}
	ofy, err := allocZero(d, atoms)
	if err != nil {
		return abort(d, err)
	}
	ofz, err := allocZero(d, atoms)
	if err != nil {
		return abort(d, err)
	}

	d.ResetTimer()
	block := 128
	grid := sim.Dim3{X: (atoms + block - 1) / block, Y: 1}
	if err := d.Launch(mod, "lj", grid, sim.Dim3{X: block, Y: 1},
		B(px), B(py), B(pz), B(nb), B(ofx), B(ofy), B(ofz), V(uint32(atoms))); err != nil {
		return abort(d, err)
	}

	gx, err := readWords(d, ofx, atoms)
	if err != nil {
		return abort(d, err)
	}
	gy, err := readWords(d, ofy, atoms)
	if err != nil {
		return abort(d, err)
	}
	gz, err := readWords(d, ofz, atoms)
	if err != nil {
		return abort(d, err)
	}
	correct := closeF32(gx, h.fx, 1e-3) && closeF32(gy, h.fy, 1e-3) && closeF32(gz, h.fz, 1e-3)

	flops := float64(atoms) * mdMaxNeigh * mdFlopsPerN
	return result(d, flops, correct)
}
