// Package tub implements the DonkeyCar "tub" dataset format the paper
// describes in §3.3: datasets are directories holding .catalog files
// (JSON-lines of steering/throttle records), .catalog_manifest files with
// per-catalog bookkeeping, a manifest.json where records are marked for
// deletion, and an images directory with one image per record.
package tub

import (
	"encoding/json"
	"errors"
	"fmt"
	"image"
	"image/png"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/sim"
)

// Standard DonkeyCar record keys.
const (
	KeyImage    = "cam/image_array"
	KeyAngle    = "user/angle"
	KeyThrottle = "user/throttle"
	KeyMode     = "user/mode"
	KeyIndex    = "_index"
	KeyTimeMS   = "_timestamp_ms"
)

// DefaultCatalogSize is how many records each .catalog chunk holds.
const DefaultCatalogSize = 1000

// StoredRecord is one tub record as persisted on disk.
type StoredRecord struct {
	Index    int     `json:"_index"`
	TimeMS   int64   `json:"_timestamp_ms"`
	Image    string  `json:"cam/image_array"`
	Angle    float64 `json:"user/angle"`
	Throttle float64 `json:"user/throttle"`
	Mode     string  `json:"user/mode"`
}

// catalogManifest mirrors DonkeyCar's .catalog_manifest sidecar.
type catalogManifest struct {
	Path       string `json:"path"`
	StartIndex int    `json:"start_index"`
	Count      int    `json:"line_count"`
}

// manifest is the tub-level manifest.json: schema info plus the deletion
// set tubclean mutates.
type manifest struct {
	Inputs         []string `json:"inputs"`
	Types          []string `json:"types"`
	CatalogPaths   []string `json:"paths"`
	CurrentIndex   int      `json:"current_index"`
	DeletedIndexes []int    `json:"deleted_indexes"`
	SessionID      string   `json:"session_id,omitempty"`
}

// Tub is an on-disk dataset directory.
type Tub struct {
	Dir string
}

// Write-through frame cache shared by all Tub handles: PNG encoding is
// lossless for the formats saveFrame writes, so a frame saved (or decoded
// once) can serve later LoadFrame calls without reopening the file — file
// opens dominate the collect→clean→train loop on slow filesystems, and the
// cleaner, the trainer, and the collector each Open their own handle to
// the same directory. Keyed by tub directory, then image file name;
// entries are in the file's native channel count and converted per
// request. Frames are kept only while their tub exists: Create drops the
// frames of every cached tub whose directory is gone, so a removed tub
// neither serves pixels nor pins memory. Bounded by frameCacheMaxBytes:
// past it, new frames are simply not cached (files remain the source of
// truth).
var frameCache = struct {
	sync.Mutex
	tubs  map[string]map[string]*sim.Frame // tub dir → image name → frame
	bytes int
}{tubs: make(map[string]map[string]*sim.Frame)}

const frameCacheMaxBytes = 64 << 20

func (t *Tub) framePath(name string) string {
	return filepath.Join(t.Dir, imagesDir, name)
}

func cachePutFrame(dir, name string, f *sim.Frame) {
	dir = filepath.Clean(dir)
	frameCache.Lock()
	defer frameCache.Unlock()
	frames := frameCache.tubs[dir]
	if _, ok := frames[name]; ok {
		return
	}
	if frameCache.bytes+len(f.Pix) > frameCacheMaxBytes {
		return
	}
	if frames == nil {
		frames = make(map[string]*sim.Frame)
		frameCache.tubs[dir] = frames
	}
	frames[name] = f
	frameCache.bytes += len(f.Pix)
}

func cacheGetFrame(dir, name string) *sim.Frame {
	frameCache.Lock()
	defer frameCache.Unlock()
	return frameCache.tubs[filepath.Clean(dir)][name]
}

// cacheSweep drops the cached frames of dir, so re-initializing a tub in
// a previously used directory cannot serve stale pixels, and those of
// every tub whose directory no longer exists.
func cacheSweep(dir string) {
	dir = filepath.Clean(dir)
	frameCache.Lock()
	defer frameCache.Unlock()
	for d, frames := range frameCache.tubs {
		if d != dir {
			if _, err := os.Stat(d); !errors.Is(err, fs.ErrNotExist) {
				continue
			}
		}
		for _, f := range frames {
			frameCache.bytes -= len(f.Pix)
		}
		delete(frameCache.tubs, d)
	}
}

// ErrNotTub is returned when opening a directory without a manifest.json.
var ErrNotTub = errors.New("tub: directory has no manifest.json")

const (
	manifestName = "manifest.json"
	imagesDir    = "images"
)

// Create initializes a new, empty tub directory (created if absent).
func Create(dir string) (*Tub, error) {
	if err := os.MkdirAll(filepath.Join(dir, imagesDir), 0o755); err != nil {
		return nil, fmt.Errorf("tub: create: %w", err)
	}
	cacheSweep(dir)
	t := &Tub{Dir: dir}
	m := manifest{
		Inputs:         []string{KeyImage, KeyAngle, KeyThrottle, KeyMode},
		Types:          []string{"image_array", "float", "float", "str"},
		DeletedIndexes: []int{},
		CatalogPaths:   []string{},
	}
	if err := t.writeManifest(&m); err != nil {
		return nil, err
	}
	return t, nil
}

// Open opens an existing tub directory.
func Open(dir string) (*Tub, error) {
	if _, err := os.Stat(filepath.Join(dir, manifestName)); err != nil {
		if os.IsNotExist(err) {
			return nil, fmt.Errorf("%w: %s", ErrNotTub, dir)
		}
		return nil, fmt.Errorf("tub: open: %w", err)
	}
	return &Tub{Dir: dir}, nil
}

func (t *Tub) readManifest() (*manifest, error) {
	data, err := os.ReadFile(filepath.Join(t.Dir, manifestName))
	if err != nil {
		return nil, fmt.Errorf("tub: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("tub: parse manifest: %w", err)
	}
	return &m, nil
}

func (t *Tub) writeManifest(m *manifest) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("tub: encode manifest: %w", err)
	}
	return os.WriteFile(filepath.Join(t.Dir, manifestName), data, 0o644)
}

// Count returns the number of live (non-deleted) records.
func (t *Tub) Count() (int, error) {
	m, err := t.readManifest()
	if err != nil {
		return 0, err
	}
	return m.CurrentIndex - len(m.DeletedIndexes), nil
}

// TotalCount returns the number of records ever written, deleted or not.
func (t *Tub) TotalCount() (int, error) {
	m, err := t.readManifest()
	if err != nil {
		return 0, err
	}
	return m.CurrentIndex, nil
}

// MarkDeleted adds record indexes to the deletion set (idempotent). This is
// what the tubclean UI does when the student selects bad video segments.
func (t *Tub) MarkDeleted(indexes ...int) error {
	m, err := t.readManifest()
	if err != nil {
		return err
	}
	have := make(map[int]bool, len(m.DeletedIndexes))
	for _, i := range m.DeletedIndexes {
		have[i] = true
	}
	for _, i := range indexes {
		if i < 0 || i >= m.CurrentIndex {
			return fmt.Errorf("tub: index %d out of range [0,%d)", i, m.CurrentIndex)
		}
		if !have[i] {
			m.DeletedIndexes = append(m.DeletedIndexes, i)
			have[i] = true
		}
	}
	sort.Ints(m.DeletedIndexes)
	return t.writeManifest(m)
}

// Restore removes indexes from the deletion set.
func (t *Tub) Restore(indexes ...int) error {
	m, err := t.readManifest()
	if err != nil {
		return err
	}
	drop := make(map[int]bool, len(indexes))
	for _, i := range indexes {
		drop[i] = true
	}
	kept := m.DeletedIndexes[:0]
	for _, i := range m.DeletedIndexes {
		if !drop[i] {
			kept = append(kept, i)
		}
	}
	m.DeletedIndexes = kept
	return t.writeManifest(m)
}

// imageFileName mirrors DonkeyCar's naming convention.
func imageFileName(index int) string {
	return fmt.Sprintf("%d_cam_image_array_.png", index)
}

// pngPool recycles the PNG encoder's internal scratch (zlib writer and
// filter rows) across saveFrame calls; without it every record encode
// rebuilds a full deflate state.
type pngPool struct{ pool sync.Pool }

func (p *pngPool) Get() *png.EncoderBuffer {
	b, _ := p.pool.Get().(*png.EncoderBuffer)
	return b
}

func (p *pngPool) Put(b *png.EncoderBuffer) { p.pool.Put(b) }

var frameEncoder = png.Encoder{CompressionLevel: png.BestSpeed, BufferPool: &pngPool{}}

// saveFrame encodes a sim.Frame as PNG under images/. Grayscale frames
// are stored as 8-bit grayscale PNGs (a quarter of the RGBA bytes);
// 3-channel frames as NRGBA. Pixels move with bulk copies rather than
// per-pixel Set calls, which would box a color.Color per pixel.
func (t *Tub) saveFrame(index int, f *sim.Frame) (string, error) {
	name := imageFileName(index)
	var img image.Image
	if f.C == 1 {
		g := image.NewGray(image.Rect(0, 0, f.W, f.H))
		copy(g.Pix, f.Pix)
		img = g
	} else {
		rgba := image.NewNRGBA(image.Rect(0, 0, f.W, f.H))
		for i, o := 0, 0; i+2 < len(f.Pix); i, o = i+3, o+4 {
			rgba.Pix[o] = f.Pix[i]
			rgba.Pix[o+1] = f.Pix[i+1]
			rgba.Pix[o+2] = f.Pix[i+2]
			rgba.Pix[o+3] = 255
		}
		img = rgba
	}
	fp, err := os.Create(filepath.Join(t.Dir, imagesDir, name))
	if err != nil {
		return "", fmt.Errorf("tub: save image: %w", err)
	}
	defer fp.Close()
	if err := frameEncoder.Encode(fp, img); err != nil {
		return "", fmt.Errorf("tub: encode image: %w", err)
	}
	cachePutFrame(t.Dir, name, cloneFrame(f))
	return name, nil
}

func cloneFrame(f *sim.Frame) *sim.Frame {
	c := *f
	c.Pix = append([]uint8(nil), f.Pix...)
	return &c
}

// convertFrame produces a copy of src with the requested channel count,
// using the same math as the PNG decode path (PNG is lossless for the
// formats saveFrame writes, so this equals a disk round trip bit-for-bit).
func convertFrame(src *sim.Frame, channels int) (*sim.Frame, error) {
	f, err := sim.NewFrame(src.W, src.H, channels)
	if err != nil {
		return nil, err
	}
	switch {
	case src.C == channels:
		copy(f.Pix, src.Pix)
	case src.C == 1: // gray → rgb
		for i, v := range src.Pix {
			f.Pix[i*3], f.Pix[i*3+1], f.Pix[i*3+2] = v, v, v
		}
	default: // rgb → gray
		for i := 0; i < len(f.Pix); i++ {
			r, g, b := src.Pix[i*3], src.Pix[i*3+1], src.Pix[i*3+2]
			lum := 0.299*float64(r) + 0.587*float64(g) + 0.114*float64(b)
			f.Pix[i] = uint8(lum)
		}
	}
	return f, nil
}

// LoadFrame reads a record's image back as a sim.Frame with the requested
// channel count (1 or 3).
func (t *Tub) LoadFrame(name string, channels int) (*sim.Frame, error) {
	if cached := cacheGetFrame(t.Dir, name); cached != nil {
		return convertFrame(cached, channels)
	}
	fp, err := os.Open(t.framePath(name))
	if err != nil {
		return nil, fmt.Errorf("tub: load image: %w", err)
	}
	defer fp.Close()
	img, err := png.Decode(fp)
	if err != nil {
		return nil, fmt.Errorf("tub: decode image: %w", err)
	}
	b := img.Bounds()
	// Fast paths: read the decoded image's Pix buffer directly into a
	// frame with the file's native channel count (the generic fallback
	// goes through the color.Color interface, which allocates per pixel),
	// cache it, and convert per request.
	var native *sim.Frame
	switch src := img.(type) {
	case *image.Gray:
		native, err = sim.NewFrame(b.Dx(), b.Dy(), 1)
		if err != nil {
			return nil, err
		}
		loadFromStrided(native, src.Pix, src.Stride, 1)
	case *image.NRGBA:
		native, err = sim.NewFrame(b.Dx(), b.Dy(), 3)
		if err != nil {
			return nil, err
		}
		loadFromStrided(native, src.Pix, src.Stride, 4)
	case *image.RGBA:
		native, err = sim.NewFrame(b.Dx(), b.Dy(), 3)
		if err != nil {
			return nil, err
		}
		loadFromStrided(native, src.Pix, src.Stride, 4)
	default:
		native, err = sim.NewFrame(b.Dx(), b.Dy(), 3)
		if err != nil {
			return nil, err
		}
		for y := 0; y < b.Dy(); y++ {
			for x := 0; x < b.Dx(); x++ {
				r, g, bb, _ := img.At(b.Min.X+x, b.Min.Y+y).RGBA()
				native.Set(x, y, uint8(r>>8), uint8(g>>8), uint8(bb>>8))
			}
		}
	}
	cachePutFrame(t.Dir, name, native)
	return convertFrame(native, channels)
}

// loadFromStrided fills f (in the source's native channel count) from a
// decoded pixel buffer with the given row stride and source pixel width
// (1 = grayscale, 4 = RGBA/NRGBA).
func loadFromStrided(f *sim.Frame, pix []uint8, stride, srcC int) {
	for y := 0; y < f.H; y++ {
		row := pix[y*stride:]
		if srcC == 1 {
			copy(f.Pix[y*f.W:(y+1)*f.W], row[:f.W])
			continue
		}
		for x := 0; x < f.W; x++ {
			o := (y*f.W + x) * 3
			f.Pix[o], f.Pix[o+1], f.Pix[o+2] = row[x*4], row[x*4+1], row[x*4+2]
		}
	}
}
