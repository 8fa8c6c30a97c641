package extend

import (
	"testing"

	"beacon/internal/core"
)

func TestNewImageValidation(t *testing.T) {
	if _, err := NewImage(0, 10, 1); err == nil {
		t.Error("zero width accepted")
	}
	if _, err := NewImage(10, -1, 1); err == nil {
		t.Error("negative height accepted")
	}
}

func TestImageClampAt(t *testing.T) {
	im, err := NewImage(4, 4, 7)
	if err != nil {
		t.Fatal(err)
	}
	if im.At(-5, 0) != im.At(0, 0) || im.At(9, 9) != im.At(3, 3) {
		t.Error("clamp-to-edge broken")
	}
}

func TestGaussianSmooths(t *testing.T) {
	im, _ := NewImage(64, 64, 3)
	out := im.Convolve(GaussianKernel())
	// Blur reduces total variation.
	tv := func(img *Image) int {
		s := 0
		for y := 0; y < img.H; y++ {
			for x := 1; x < img.W; x++ {
				d := int(img.At(x, y)) - int(img.At(x-1, y))
				if d < 0 {
					d = -d
				}
				s += d
			}
		}
		return s
	}
	if tv(out) >= tv(im) {
		t.Errorf("blur did not smooth: TV %d -> %d", tv(im), tv(out))
	}
}

func TestSobelFindsEdges(t *testing.T) {
	// A step image: Sobel-X responds at the step and nowhere else.
	im := &Image{W: 16, H: 8, Pix: make([]uint8, 16*8)}
	for y := 0; y < 8; y++ {
		for x := 8; x < 16; x++ {
			im.Pix[y*16+x] = 200
		}
	}
	out := im.Convolve(SobelXKernel())
	if out.At(8, 4) == 0 {
		t.Error("no response at the step")
	}
	if out.At(3, 4) != 0 || out.At(13, 4) != 0 {
		t.Error("response away from the step")
	}
}

func TestConvolveWorkloadMatchesReference(t *testing.T) {
	im, _ := NewImage(96, 80, 11)
	k := GaussianKernel()
	out, wl, err := ConvolveWorkload(im, k, 16, "conv")
	if err != nil {
		t.Fatalf("ConvolveWorkload: %v", err)
	}
	if err := VerifyConvolution(im, k, out); err != nil {
		t.Fatalf("VerifyConvolution: %v", err)
	}
	if err := wl.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// 6x5 tiles.
	if len(wl.Tasks) != 30 {
		t.Errorf("tasks = %d, want 30", len(wl.Tasks))
	}
	if _, _, err := ConvolveWorkload(im, k, 0, "x"); err == nil {
		t.Error("zero tile size accepted")
	}
}

func TestConvolveWorkloadRunsOnBeacon(t *testing.T) {
	im, _ := NewImage(128, 128, 5)
	_, wl, err := ConvolveWorkload(im, SobelXKernel(), 16, "sobel")
	if err != nil {
		t.Fatal(err)
	}
	all := core.Options{DataPacking: true, MemAccessOpt: true, Placement: true, Coalescing: true}
	res, err := core.Run(core.DefaultConfig(core.DesignD, all), wl)
	if err != nil {
		t.Fatal(err)
	}
	if res.Tasks != len(wl.Tasks) {
		t.Errorf("tasks %d/%d", res.Tasks, len(wl.Tasks))
	}
	// Streaming workload: DRAM writes must roughly match the output size.
	if res.DRAM.Writes == 0 {
		t.Error("no DRAM writes recorded")
	}
}

func TestVerifyConvolutionCatchesCorruption(t *testing.T) {
	im, _ := NewImage(32, 32, 9)
	k := GaussianKernel()
	out := im.Convolve(k)
	out.Pix[100] ^= 0xFF
	if err := VerifyConvolution(im, k, out); err == nil {
		t.Error("corrupted output accepted")
	}
	bad := &Image{W: 16, H: 16, Pix: make([]uint8, 256)}
	if err := VerifyConvolution(im, k, bad); err == nil {
		t.Error("size mismatch accepted")
	}
}
