// Package phash implements 64-bit DCT-based perceptual hashing of images,
// Hamming-distance computation, and the all-pairs neighbourhood scans
// (with multi-index hashing for large corpora) used by the meme-tracking
// pipeline.
//
// The hash follows the classic pHash construction used by the paper's
// ImageHash dependency: the image is converted to grayscale, downsampled to
// 32x32 with bilinear interpolation, transformed with a 2-D DCT-II, and the
// top-left 8x8 block of low-frequency coefficients (excluding the DC term
// when computing the threshold) is binarised around its median. Visually
// similar images therefore map to hashes within a small Hamming distance.
package phash

import (
	"encoding/binary"
	"errors"
	"fmt"
	"image"
	"image/color"
	"math/bits"
	"strconv"
)

// Size is the number of bits in a perceptual hash.
const Size = 64

// MaxDistance is the maximum possible Hamming distance between two hashes.
const MaxDistance = Size

// Hash is a 64-bit perceptual hash. The zero value is a valid hash (all
// zero bits) but is unlikely to be produced by a natural image.
type Hash uint64

// lowResSize is the side of the intermediate downsampled grayscale image.
const lowResSize = 32

// dctBlock is the side of the low-frequency DCT block retained for hashing.
const dctBlock = 8

var errEmptyImage = errors.New("phash: empty image")

// FromImage computes the perceptual hash of img. The hot path — grayscale
// conversion, bilinear downsample, pruned DCT, median threshold — runs
// entirely on pooled scratch, so steady-state hashing allocates nothing for
// the common concrete image types (*image.Gray, *image.RGBA, *image.NRGBA,
// *image.YCbCr). The annotation below puts this function under the noalloc
// analyzer, complementing the runtime AllocsPerRun gate.
//
//memes:noalloc
func FromImage(img image.Image) (Hash, error) {
	if img == nil {
		return 0, errEmptyImage
	}
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	if w <= 0 || h <= 0 {
		return 0, errEmptyImage
	}
	hs := hasherPool.Get().(*hasher)
	defer hasherPool.Put(hs)
	pix := hs.grayBuf(w * h)
	toGrayInto(img, pix)
	return hs.hashGray(pix, w, h), nil
}

// FromGray computes the perceptual hash of a grayscale matrix given in
// row-major order with the provided dimensions. It is the low-level entry
// point used by synthetic workload generators that never materialise an
// image.Image; like FromImage it is allocation-free in steady state, with
// error construction on the invalid-input path pushed into an unannotated
// helper.
//
//memes:noalloc
func FromGray(pix []float64, w, h int) (Hash, error) {
	if w <= 0 || h <= 0 || len(pix) != w*h {
		return 0, errInvalidGray(w, h, len(pix))
	}
	hs := hasherPool.Get().(*hasher)
	defer hasherPool.Put(hs)
	return hs.hashGray(pix, w, h), nil
}

// errInvalidGray builds FromGray's invalid-input error; a separate function
// so the fmt allocation stays off the annotated hash path.
func errInvalidGray(w, h, n int) error {
	return fmt.Errorf("phash: invalid gray matrix %dx%d with %d pixels", w, h, n)
}

// Distance returns the Hamming distance between two hashes, i.e. the number
// of bit positions at which they differ. The result is in [0, 64].
func Distance(a, b Hash) int {
	return bits.OnesCount64(uint64(a ^ b))
}

// Similar reports whether the Hamming distance between a and b is at most
// threshold.
func Similar(a, b Hash, threshold int) bool {
	return Distance(a, b) <= threshold
}

// String returns the canonical 16-character lowercase hexadecimal
// representation of the hash, matching the string form used in the paper
// (e.g. "55352b0b8d8b5b53").
func (h Hash) String() string {
	return fmt.Sprintf("%016x", uint64(h))
}

// Parse parses a hash from its hexadecimal string representation.
func Parse(s string) (Hash, error) {
	if len(s) == 0 || len(s) > 16 {
		return 0, fmt.Errorf("phash: invalid hash string %q", s)
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, fmt.Errorf("phash: invalid hash string %q: %w", s, err)
	}
	return Hash(v), nil
}

// MarshalBinary implements encoding.BinaryMarshaler.
func (h Hash) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 8)
	binary.BigEndian.PutUint64(buf, uint64(h))
	return buf, nil
}

// UnmarshalBinary implements encoding.BinaryUnmarshaler.
func (h *Hash) UnmarshalBinary(data []byte) error {
	if len(data) != 8 {
		return fmt.Errorf("phash: invalid binary hash length %d", len(data))
	}
	*h = Hash(binary.BigEndian.Uint64(data))
	return nil
}

// MarshalText implements encoding.TextMarshaler.
func (h Hash) MarshalText() ([]byte, error) { return []byte(h.String()), nil }

// UnmarshalText implements encoding.TextUnmarshaler.
func (h *Hash) UnmarshalText(data []byte) error {
	v, err := Parse(string(data))
	if err != nil {
		return err
	}
	*h = v
	return nil
}

// toGray converts an image to a float64 luminance matrix in row-major order
// with the same dimensions as the source bounds.
func toGray(img image.Image) grayMatrix {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	m := grayMatrix{w: w, h: h, pix: make([]float64, w*h)}
	toGrayInto(img, m.pix)
	return m
}

// toGrayInto writes the luminance matrix of img into dst (len >= Dx*Dy),
// in row-major order. Dedicated loops cover the concrete image types the
// synthetic and real corpora produce — *image.Gray, *image.RGBA,
// *image.NRGBA, *image.YCbCr — without per-pixel interface conversions;
// every fast path computes exactly the value the generic color.RGBAModel
// path would (pinned by equivalence tests), so the hash does not depend on
// which path ran.
//
//memes:noalloc
func toGrayInto(img image.Image, dst []float64) {
	b := img.Bounds()
	w, h := b.Dx(), b.Dy()
	switch src := img.(type) {
	case *image.Gray:
		for y := 0; y < h; y++ {
			row := src.Pix[(y+b.Min.Y-src.Rect.Min.Y)*src.Stride:]
			for x := 0; x < w; x++ {
				dst[y*w+x] = float64(row[x+b.Min.X-src.Rect.Min.X])
			}
		}
	case *image.RGBA:
		for y := 0; y < h; y++ {
			i := src.PixOffset(b.Min.X, y+b.Min.Y)
			for x := 0; x < w; x++ {
				r, g, bl := src.Pix[i], src.Pix[i+1], src.Pix[i+2]
				dst[y*w+x] = luminance(float64(r), float64(g), float64(bl))
				i += 4
			}
		}
	case *image.NRGBA:
		for y := 0; y < h; y++ {
			i := src.PixOffset(b.Min.X, y+b.Min.Y)
			for x := 0; x < w; x++ {
				a := uint32(src.Pix[i+3])
				r := npremul(uint32(src.Pix[i]), a)
				g := npremul(uint32(src.Pix[i+1]), a)
				bl := npremul(uint32(src.Pix[i+2]), a)
				dst[y*w+x] = luminance(float64(r), float64(g), float64(bl))
				i += 4
			}
		}
	case *image.YCbCr:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := src.YCbCrAt(x+b.Min.X, y+b.Min.Y)
				r, g, bl := ycbcrToRGB8(c.Y, c.Cb, c.Cr)
				dst[y*w+x] = luminance(float64(r), float64(g), float64(bl))
			}
		}
	default:
		for y := 0; y < h; y++ {
			for x := 0; x < w; x++ {
				c := color.RGBAModel.Convert(img.At(x+b.Min.X, y+b.Min.Y)).(color.RGBA)
				dst[y*w+x] = luminance(float64(c.R), float64(c.G), float64(c.B))
			}
		}
	}
}

// npremul alpha-premultiplies one 8-bit non-premultiplied channel and
// truncates back to 8 bits, replicating color.NRGBA.RGBA followed by
// color.RGBAModel's >>8 exactly.
func npremul(v, a uint32) uint8 {
	v |= v << 8
	v *= a
	v /= 0xff
	return uint8(v >> 8)
}

// ycbcrToRGB8 converts a Y'CbCr triple to 8-bit RGB with the same
// fixed-point arithmetic and clamping as color.YCbCr.RGBA (truncated to
// 8 bits the way color.RGBAModel truncates it), so the fast path is
// bit-compatible with the generic conversion.
func ycbcrToRGB8(yy, cb, cr uint8) (uint8, uint8, uint8) {
	yy1 := int32(yy) * 0x10101
	cb1 := int32(cb) - 128
	cr1 := int32(cr) - 128

	r := yy1 + 91881*cr1
	if uint32(r)&0xff000000 == 0 {
		r >>= 8
	} else {
		r = ^(r >> 31) & 0xffff
	}
	g := yy1 - 22554*cb1 - 46802*cr1
	if uint32(g)&0xff000000 == 0 {
		g >>= 8
	} else {
		g = ^(g >> 31) & 0xffff
	}
	b := yy1 + 116130*cb1
	if uint32(b)&0xff000000 == 0 {
		b >>= 8
	} else {
		b = ^(b >> 31) & 0xffff
	}
	return uint8(uint32(r) >> 8), uint8(uint32(g) >> 8), uint8(uint32(b) >> 8)
}

// luminance computes the ITU-R BT.601 luma from 8-bit RGB components.
func luminance(r, g, b float64) float64 {
	return 0.299*r + 0.587*g + 0.114*b
}

type grayMatrix struct {
	w, h int
	pix  []float64
}

// resizeBilinear resizes a grayscale matrix to dw x dh using bilinear
// interpolation and returns the result in row-major order.
func resizeBilinear(m grayMatrix, dw, dh int) []float64 {
	return resizeBilinearRaw(m.pix, m.w, m.h, dw, dh)
}

func resizeBilinearRaw(pix []float64, sw, sh, dw, dh int) []float64 {
	out := make([]float64, dw*dh)
	resizeBilinearInto(out, pix, sw, sh, dw, dh)
	return out
}

// resizeBilinearInto is resizeBilinearRaw writing into a caller-provided
// buffer of length dw*dh, so pooled hashers resize without allocating.
//
//memes:noalloc
func resizeBilinearInto(out, pix []float64, sw, sh, dw, dh int) {
	if sw == dw && sh == dh {
		copy(out, pix)
		return
	}
	xRatio := float64(sw-1) / float64(maxInt(dw-1, 1))
	yRatio := float64(sh-1) / float64(maxInt(dh-1, 1))
	for y := 0; y < dh; y++ {
		sy := float64(y) * yRatio
		y0 := int(sy)
		y1 := y0
		if y1 < sh-1 {
			y1++
		}
		fy := sy - float64(y0)
		for x := 0; x < dw; x++ {
			sx := float64(x) * xRatio
			x0 := int(sx)
			x1 := x0
			if x1 < sw-1 {
				x1++
			}
			fx := sx - float64(x0)
			p00 := pix[y0*sw+x0]
			p01 := pix[y0*sw+x1]
			p10 := pix[y1*sw+x0]
			p11 := pix[y1*sw+x1]
			top := p00 + (p01-p00)*fx
			bot := p10 + (p11-p10)*fx
			out[y*dw+x] = top + (bot-top)*fy
		}
	}
}

// medianExcludingFirst returns the median of vals[1:]; the first element is
// the DC coefficient that is conventionally excluded from the threshold.
// The hash path always passes the 64-coefficient block, so the 63 remaining
// values fit the fixed stack buffer and a partial selection sort up to the
// middle replaces a full sort — no allocation, ~half the comparisons. The
// selected order statistics are the same values a full sort would yield, so
// hashes are unchanged. Oversized inputs (never the hash path) spill to the
// allocating medianSpill so this function stays annotation-clean.
//
//memes:noalloc
func medianExcludingFirst(vals []float64) float64 {
	var buf [dctBlock*dctBlock - 1]float64
	n := len(vals) - 1
	if n > len(buf) {
		return medianSpill(vals)
	}
	tmp := buf[:n]
	copy(tmp, vals[1:])
	return medianSelect(tmp)
}

// medianSpill is the cold path for coefficient blocks larger than the fixed
// stack buffer; it allocates a scratch copy.
func medianSpill(vals []float64) float64 {
	tmp := make([]float64, len(vals)-1)
	copy(tmp, vals[1:])
	return medianSelect(tmp)
}

// medianSelect computes the median of tmp in place with a partial selection
// sort up to the middle.
//
//memes:noalloc
func medianSelect(tmp []float64) float64 {
	n := len(tmp)
	mid := n / 2
	for i := 0; i <= mid; i++ {
		min := i
		for j := i + 1; j < n; j++ {
			if tmp[j] < tmp[min] {
				min = j
			}
		}
		tmp[i], tmp[min] = tmp[min], tmp[i]
	}
	if n%2 == 1 {
		return tmp[mid]
	}
	return (tmp[mid-1] + tmp[mid]) / 2
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
