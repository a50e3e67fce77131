package bench

import (
	"errors"
	"fmt"

	"gpucmp/internal/arch"
	"gpucmp/internal/compiler"
	"gpucmp/internal/kir"
	"gpucmp/internal/perfmodel"
	"gpucmp/internal/ptx"
	"gpucmp/internal/sim"
)

// ErrNoCUDADevice is returned when a CUDA driver is requested on hardware
// CUDA does not support (anything non-NVIDIA — the reason Table VI has no
// CUDA column for HD5870, Intel920 or the Cell/BE).
var ErrNoCUDADevice = errors.New("cuda: no CUDA-capable device")

// Toolchain is one CUDA or OpenCL stack as a value. Each field owns one
// step of the paper's Fig. 9 gap: the front-end compiler (Personality),
// the runtime's launch and copy costs (Costs), the hardware the stack
// reaches (NVIDIAOnly) and how it reports failures (CLCodes). CUDA and
// OpenCL are the presets; the Section-V gap study opens drivers on
// OpenCL values whose personality has NVOPENCC optimisations ported in.
type Toolchain struct {
	Name        string // "cuda" or "opencl": the name results carry
	Personality compiler.Personality
	Costs       *perfmodel.Toolchain
	// NVIDIAOnly refuses every non-NVIDIA device (ErrNoCUDADevice).
	NVIDIAOnly bool
	// CLCodes joins an OpenCL error code to each failure it classifies.
	CLCodes bool
}

// CUDA returns the CUDA 3.2 stack: NVOPENCC on NVIDIA hardware.
func CUDA() Toolchain {
	return Toolchain{Name: "cuda", Personality: compiler.CUDA(), Costs: perfmodel.CUDAToolchain(), NVIDIAOnly: true}
}

// OpenCL returns the OpenCL stack, which runs on every device.
func OpenCL() Toolchain {
	return Toolchain{Name: "opencl", Personality: compiler.OpenCL(), Costs: perfmodel.OpenCLToolchain(), CLCodes: true}
}

// ToolchainNamed parses a toolchain's wire name.
func ToolchainNamed(name string) (Toolchain, error) {
	switch name {
	case "cuda":
		return CUDA(), nil
	case "opencl":
		return OpenCL(), nil
	}
	return Toolchain{}, fmt.Errorf("bench: unknown toolchain %q (want cuda or opencl)", name)
}

// RunsOn reports whether the toolchain reaches the device.
func (tc Toolchain) RunsOn(a *arch.Device) bool { return !tc.NVIDIAOnly || a.Vendor == "NVIDIA" }

// Toolchains lists the toolchains that run on a device, its native one
// first: CUDA on NVIDIA hardware only, OpenCL everywhere.
func Toolchains(a *arch.Device) []Toolchain {
	var out []Toolchain
	for _, tc := range []Toolchain{CUDA(), OpenCL()} {
		if tc.RunsOn(a) {
			out = append(out, tc)
		}
	}
	return out
}

// clCode is an OpenCL error code. Under OpenCL a failure the driver can
// classify carries its code (errors.Is) joined to the error it classifies.
type clCode string

func (c clCode) Error() string { return string(c) }

const (
	clOutOfResources       clCode = "CL_OUT_OF_RESOURCES"
	clInvalidValue         clCode = "CL_INVALID_VALUE"
	clInvalidKernelArgs    clCode = "CL_INVALID_KERNEL_ARGS"
	clInvalidWorkGroupSize clCode = "CL_INVALID_WORK_GROUP_SIZE"
)

// simCodes classifies simulator launch failures, first match wins.
var simCodes = []struct {
	err  error
	code clCode
}{
	{sim.ErrOutOfResources, clOutOfResources},
	{sim.ErrInvalidWorkGroupSize, clInvalidWorkGroupSize},
	{sim.ErrInvalidConfig, clInvalidValue},
}

// driver is the host runtime of every toolchain: one Toolchain value and
// one simulated device. The simulated clock, transfer charging, argument
// resolution and constant staging are shared; what differs between
// toolchains is the value's fields.
type driver struct {
	tc  Toolchain
	dev *sim.Device

	elapsed      float64 // end-to-end simulated seconds
	kernelTime   float64 // kernel-only simulated seconds
	transferTime float64 // host<->device copy simulated seconds
	traces       []*sim.Trace
	constOffs    map[uint32]uint32 // global address -> constant-segment offset

	// built records every kernel Build compiled, in source order, so
	// KernelReports can attach the compiler story to the benchmark result.
	built []*ptx.Kernel
}

// NewDriver opens a driver for a toolchain named "cuda" or "opencl" on the
// device: ToolchainNamed, then Open. It is the constructor for callers
// that hold wire names.
func NewDriver(toolchain string, a *arch.Device) (Driver, error) {
	tc, err := ToolchainNamed(toolchain)
	if err != nil {
		return nil, err
	}
	return tc.Open(a)
}

// Open opens a driver for the toolchain on the device. A toolchain that
// runs on NVIDIA hardware only refuses other devices with ErrNoCUDADevice.
func (tc Toolchain) Open(a *arch.Device) (Driver, error) {
	if !tc.RunsOn(a) {
		return nil, fmt.Errorf("%w (device %s is %s)", ErrNoCUDADevice, a.Name, a.Vendor)
	}
	dev, err := sim.NewDevice(a)
	if err != nil {
		return nil, err
	}
	return &driver{tc: tc, dev: dev, constOffs: make(map[uint32]uint32)}, nil
}

// fail tags err with its CL code when the toolchain reports CL codes.
func (d *driver) fail(code clCode, err error) error {
	if !d.tc.CLCodes {
		return err
	}
	return errors.Join(code, err)
}

func (d *driver) Toolchain() Toolchain { return d.tc }
func (d *driver) Arch() *arch.Device   { return d.dev.Arch }

func (d *driver) Alloc(bytes uint32) (Buf, error) {
	addr, err := d.dev.Global.Alloc(bytes)
	if err != nil {
		return Buf{}, d.fail(clOutOfResources, err)
	}
	return Buf{Addr: addr, Size: bytes}, nil
}

// Write copies host words to the device and charges the transfer.
func (d *driver) Write(dst Buf, words []uint32) error {
	if uint32(4*len(words)) > dst.Size {
		return d.fail(clInvalidValue, fmt.Errorf("bench: write of %d words overflows a %d-byte buffer", len(words), dst.Size))
	}
	if err := d.dev.Global.WriteWords(dst.Addr, words); err != nil {
		return err
	}
	d.charge(len(words))
	return nil
}

// Read copies device words to the host and charges the transfer.
func (d *driver) Read(dst []uint32, src Buf) error {
	if uint32(4*len(dst)) > src.Size {
		return d.fail(clInvalidValue, fmt.Errorf("bench: read of %d words overruns a %d-byte buffer", len(dst), src.Size))
	}
	if err := d.dev.Global.ReadWords(src.Addr, dst); err != nil {
		return err
	}
	d.charge(len(dst))
	return nil
}

// charge advances the clock by the copy time of n words.
func (d *driver) charge(n int) {
	t := perfmodel.TransferTimeOn(d.dev.Arch, d.tc.Costs, int64(4*n))
	d.elapsed += t
	d.transferTime += t
}

// Build compiles KIR kernels with the toolchain's front-end, each served
// from the process-wide compile cache.
func (d *driver) Build(kernels ...*kir.Kernel) (Module, error) {
	m, err := compiler.CompileModuleCached("bench", kernels, d.tc.Personality)
	if err != nil {
		return nil, err
	}
	// Record in the caller's kernel order, which is deterministic (module
	// maps are not).
	for _, src := range kernels {
		pk, err := m.Kernel(src.Name)
		if err != nil {
			return nil, err
		}
		d.built = append(d.built, pk)
	}
	return m, nil
}

// Launch runs a kernel and advances the clock by its modelled time.
func (d *driver) Launch(m Module, kernel string, grid, block sim.Dim3, args ...Arg) error {
	k, err := m.Kernel(kernel)
	if err != nil {
		return err
	}
	raw, err := d.resolveArgs(k, args)
	if err != nil {
		return err
	}
	tr, err := d.dev.Launch(k, grid, block, raw)
	if err != nil {
		for _, c := range simCodes {
			if errors.Is(err, c.err) {
				return d.fail(c.code, err)
			}
		}
		return err
	}
	t := perfmodel.KernelTime(d.dev.Arch, d.tc.Costs, tr).Total
	d.traces = append(d.traces, tr)
	d.elapsed += t
	d.kernelTime += t
	return nil
}

// resolveArgs converts launch arguments to the raw parameter words,
// staging constant-space buffers into the constant segment.
func (d *driver) resolveArgs(k *ptx.Kernel, args []Arg) ([]uint32, error) {
	if len(args) != len(k.Params) {
		return nil, d.fail(clInvalidKernelArgs,
			fmt.Errorf("bench: kernel %s takes %d arguments, got %d", k.Name, len(k.Params), len(args)))
	}
	raw := make([]uint32, len(args))
	for i, a := range args {
		p := k.Params[i]
		if a.IsBuf != p.Pointer {
			want := "a scalar"
			if p.Pointer {
				want = "a buffer"
			}
			return nil, d.fail(clInvalidKernelArgs,
				fmt.Errorf("bench: kernel %s argument %d (%s) must be %s", k.Name, i, p.Name, want))
		}
		switch {
		case p.Pointer && p.Space == ptx.SpaceConst:
			off, err := d.stageConst(a.Buf)
			if err != nil {
				return nil, err
			}
			raw[i] = off
		case p.Pointer:
			raw[i] = a.Buf.Addr
		default:
			raw[i] = a.Val
		}
	}
	return raw, nil
}

// stageConst copies a global allocation into the constant segment at
// every launch, so the kernel reads the buffer's current contents, and
// returns its constant-space offset. Each buffer's slot is reserved once.
func (d *driver) stageConst(b Buf) (uint32, error) {
	off, ok := d.constOffs[b.Addr]
	if !ok {
		var err error
		if off, err = d.dev.ConstAlloc(b.Size); err != nil {
			return 0, d.fail(clOutOfResources, err)
		}
		d.constOffs[b.Addr] = off
	}
	words := make([]uint32, b.Size/4)
	if err := d.dev.Global.ReadWords(b.Addr, words); err != nil {
		return 0, err
	}
	if err := d.dev.ConstWrite(off, words); err != nil {
		return 0, err
	}
	return off, nil
}

func (d *driver) KernelTime() float64  { return d.kernelTime }
func (d *driver) Elapsed() float64     { return d.elapsed }
func (d *driver) Traces() []*sim.Trace { return d.traces }

// ResetTimer clears the simulated clock and the launch history.
func (d *driver) ResetTimer() {
	d.elapsed, d.kernelTime, d.transferTime = 0, 0, 0
	d.traces = nil
}

// SimDevice exposes the simulated device underneath a driver — the seam
// the scheduler's watchdog uses to cancel a runaway kernel (sim.Device.
// Cancel) and the fault injector hooks into. Returns nil for drivers that
// do not wrap a simulated device.
func SimDevice(d Driver) *sim.Device {
	if dd, ok := d.(*driver); ok {
		return dd.dev
	}
	return nil
}

// TransferSeconds exposes the host<->device copy time a driver has
// accumulated since its last ResetTimer. Zero for drivers that do not
// track transfers.
func TransferSeconds(d Driver) float64 {
	if dd, ok := d.(*driver); ok {
		return dd.transferTime
	}
	return 0
}
