package datastore

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"ppclust/internal/matrix"
)

// Dir is a Store persisted as one directory per dataset under
// root/<owner>/<name>/: append-only binary row-segment files plus an
// NDJSON manifest journal. Each Put writes its segments and manifest into
// a private temp directory and renames it into place, all with 0600/0700
// permissions — uploaded data may be unprotected originals, so the store
// is as private as the keyring.
//
// The manifest is a journal, not a document: its first line is the
// dataset header, every following line commits one segment (a batch of
// rows). Recovery is therefore prefix-shaped — a truncated trailing
// manifest line, or a segment file shorter than its committed row count,
// drops that batch and everything after it, and the dataset reopens at
// the last complete batch instead of failing outright.
//
// Only metadata is resident: row blocks load lazily from their segment
// files through a byte-bounded LRU cache shared across every shard, so
// hot datasets serve repeated job reads from memory while cold ones cost
// no RAM at all. The index itself is sharded by owner exactly like
// Memory, so concurrent multi-owner ingest scales with the shard count.
type Dir struct {
	root   string
	cache  *BlockCache
	shards []*memShard // same sharded index as Memory; the shard lock also serializes file mutations for its owners
}

// DirOptions tunes a Dir store.
type DirOptions struct {
	// Shards is the index shard count (< 1: DefaultShards).
	Shards int
	// CacheBytes bounds the shared block cache (< 1: DefaultCacheBytes).
	CacheBytes int64
}

// manifestHeader is the journal's first line. Its Meta.Rows is advisory:
// the authoritative row count is the sum of the recovered batch lines.
type manifestHeader struct {
	Version int  `json:"version"`
	Meta    Meta `json:"meta"`
}

// manifestBatch commits one segment: its file, row count and (for labeled
// datasets) the batch's labels.
type manifestBatch struct {
	Seg    string `json:"seg"`
	Rows   int    `json:"rows"`
	Labels []int  `json:"labels,omitempty"`
}

const (
	manifestName    = "manifest"
	manifestVersion = 2
)

// OpenDir opens (or initializes) a directory-backed dataset store with
// default options.
func OpenDir(root string) (*Dir, error) {
	return OpenDirOptions(root, DirOptions{})
}

// OpenDirOptions opens (or initializes) a directory-backed dataset store.
func OpenDirOptions(root string, opts DirOptions) (*Dir, error) {
	if opts.Shards < 1 {
		opts.Shards = DefaultShards
	}
	if err := os.MkdirAll(root, 0o700); err != nil {
		return nil, fmt.Errorf("datastore: creating %s: %w", root, err)
	}
	d := &Dir{
		root:   root,
		cache:  NewBlockCache(opts.CacheBytes),
		shards: make([]*memShard, opts.Shards),
	}
	for i := range d.shards {
		d.shards[i] = &memShard{owners: map[string]map[string]*Dataset{}}
	}
	owners, err := os.ReadDir(root)
	if err != nil {
		return nil, fmt.Errorf("datastore: reading %s: %w", root, err)
	}
	for _, ownerEnt := range owners {
		if !ownerEnt.IsDir() || ValidName(ownerEnt.Name()) != nil {
			continue
		}
		owner := ownerEnt.Name()
		files, err := os.ReadDir(filepath.Join(root, owner))
		if err != nil {
			return nil, fmt.Errorf("datastore: reading %s: %w", owner, err)
		}
		for _, f := range files {
			// Dot-prefixed entries are persist()'s temp dirs and files; a
			// crash can leave one behind (possibly truncated) and it must
			// never be loaded. They are garbage — sweep them.
			if strings.HasPrefix(f.Name(), ".") {
				_ = os.RemoveAll(filepath.Join(root, owner, f.Name()))
				continue
			}
			if !f.IsDir() && strings.HasSuffix(f.Name(), ".json") {
				// A one-document-per-dataset file is not a format this
				// store reads. Refuse loudly: skipping it would make a
				// dataset silently vanish.
				return nil, fmt.Errorf("datastore: %s is not a segment-layout dataset; move it out of the data directory",
					filepath.Join(root, owner, f.Name()))
			}
			if !f.IsDir() || ValidName(f.Name()) != nil {
				continue
			}
			ds, err := d.loadDataset(owner, f.Name())
			if err != nil {
				return nil, err
			}
			if ds == nil {
				continue // unrecoverable dataset: skipped, not fatal
			}
			sh := d.shard(ds.Owner)
			if err := sh.putLocked(ds); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// Root returns the backing directory.
func (d *Dir) Root() string { return d.root }

// Cache returns the store's shared block cache (for metrics and
// benchmarks).
func (d *Dir) Cache() *BlockCache { return d.cache }

// Shards returns the index shard count.
func (d *Dir) Shards() int { return len(d.shards) }

func (d *Dir) shard(owner string) *memShard {
	return d.shards[shardOf(owner, len(d.shards))]
}

func (d *Dir) datasetDir(owner, name string) string {
	return filepath.Join(d.root, owner, name)
}

func cacheKey(owner, name, seg string) string {
	return owner + "\x00" + name + "\x00" + seg
}

// loadDataset reopens one dataset directory, recovering to the longest
// prefix of complete batches. It returns (nil, nil) when nothing is
// recoverable — the caller skips the dataset rather than failing the
// whole store.
func (d *Dir) loadDataset(owner, name string) (*Dataset, error) {
	dir := d.datasetDir(owner, name)
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return nil, nil // crash between dir rename steps: no manifest, no data
		}
		return nil, fmt.Errorf("datastore: reading %s: %w", dir, err)
	}
	sc := bufio.NewScanner(strings.NewReader(string(raw)))
	sc.Buffer(make([]byte, 0, 64*1024), 256<<20) // label lines scale with batch rows
	if !sc.Scan() {
		return nil, nil
	}
	var hdr manifestHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Version != manifestVersion {
		return nil, nil // unreadable header: unrecoverable
	}
	meta := hdr.Meta
	if meta.Cols <= 0 || ValidName(meta.Owner) != nil || ValidName(meta.Name) != nil {
		return nil, nil
	}
	ds := &Dataset{Meta: meta}
	ds.Rows = 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var batch manifestBatch
		if err := json.Unmarshal([]byte(line), &batch); err != nil {
			break // partial trailing line: recovered prefix ends here
		}
		if batch.Rows <= 0 || !fs.ValidPath(batch.Seg) || strings.Contains(batch.Seg, "/") {
			break
		}
		if meta.Labeled != (batch.Labels != nil) || (batch.Labels != nil && len(batch.Labels) != batch.Rows) {
			break
		}
		fi, err := os.Stat(filepath.Join(dir, batch.Seg))
		if err != nil || fi.Size() < int64(batch.Rows)*int64(meta.Cols)*8 {
			break // truncated or missing segment: drop this batch and the rest
		}
		ds.segs = append(ds.segs, d.lazySeg(owner, name, batch.Seg, batch.Rows, meta.Cols))
		ds.labels = append(ds.labels, batch.Labels...)
		ds.Rows += batch.Rows
	}
	if ds.Rows == 0 {
		return nil, nil
	}
	if !meta.Labeled {
		ds.labels = nil
	}
	return ds, nil
}

// lazySeg builds a segref that reads its segment file through the shared
// cache on first use.
func (d *Dir) lazySeg(owner, name, seg string, rows, cols int) segref {
	key := cacheKey(owner, name, seg)
	path := filepath.Join(d.datasetDir(owner, name), seg)
	return segref{
		rows: rows,
		load: func() (*matrix.Dense, error) {
			return d.cache.GetOrLoad(key, func() (*matrix.Dense, error) {
				return readSegment(path, rows, cols)
			})
		},
	}
}

// readSegment decodes one binary segment file: rows×cols little-endian
// float64 values, row-major.
func readSegment(path string, rows, cols int) (*matrix.Dense, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("datastore: reading segment %s: %w", path, err)
	}
	want := rows * cols * 8
	if len(raw) < want {
		return nil, fmt.Errorf("%w: segment %s has %d bytes, want %d", ErrCorrupt, path, len(raw), want)
	}
	flat := make([]float64, rows*cols)
	for i := range flat {
		flat[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return matrix.NewDense(rows, cols, flat), nil
}

func writeSegment(path string, b *matrix.Dense) error {
	buf := make([]byte, b.Rows()*b.Cols()*8)
	off := 0
	for i := 0; i < b.Rows(); i++ {
		for _, v := range b.RawRow(i) {
			binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
			off += 8
		}
	}
	return os.WriteFile(path, buf, 0o600)
}

// Put implements Store: persist into a temp directory, rename into place,
// then index. Only the owner's shard is locked, so ingest from different
// owners proceeds in parallel — that lock is held across the disk write,
// which serializes writers (and briefly readers) within one shard; the
// shard count (-store-shards) is the knob that bounds how much of the
// owner space one large ingest can stall.
func (d *Dir) Put(ds *Dataset) error {
	if err := ValidName(ds.Owner); err != nil {
		return err
	}
	if err := ValidName(ds.Name); err != nil {
		return err
	}
	sh := d.shard(ds.Owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.owners[ds.Owner][ds.Name]; ok {
		return fmt.Errorf("%w: %s/%s", ErrExists, ds.Owner, ds.Name)
	}
	stored, err := d.persist(ds)
	if err != nil {
		return err
	}
	return sh.putLocked(stored)
}

// persist writes ds as segments + manifest and returns the lazily backed
// Dataset to index: blocks live in the shared cache (warmed write-through)
// rather than being pinned per dataset.
func (d *Dir) persist(ds *Dataset) (*Dataset, error) {
	ownerDir := filepath.Join(d.root, ds.Owner)
	if err := os.MkdirAll(ownerDir, 0o700); err != nil {
		return nil, fmt.Errorf("datastore: creating %s: %w", ownerDir, err)
	}
	tmp, err := os.MkdirTemp(ownerDir, ".dataset-*")
	if err != nil {
		return nil, fmt.Errorf("datastore: temp dir: %w", err)
	}
	defer os.RemoveAll(tmp)

	var mf strings.Builder
	hdr := manifestHeader{Version: manifestVersion, Meta: ds.Meta}
	hdrRaw, err := json.Marshal(hdr)
	if err != nil {
		return nil, fmt.Errorf("datastore: encoding manifest: %w", err)
	}
	mf.Write(hdrRaw)
	mf.WriteByte('\n')

	stored := &Dataset{Meta: ds.Meta, labels: ds.labels}
	row := 0
	for i := range ds.segs {
		b, err := ds.segs[i].get()
		if err != nil {
			return nil, err
		}
		seg := fmt.Sprintf("seg-%06d.dat", i+1)
		if err := writeSegment(filepath.Join(tmp, seg), b); err != nil {
			return nil, fmt.Errorf("datastore: writing %s/%s %s: %w", ds.Owner, ds.Name, seg, err)
		}
		batch := manifestBatch{Seg: seg, Rows: b.Rows()}
		if ds.labels != nil {
			batch.Labels = ds.labels[row : row+b.Rows()]
		}
		row += b.Rows()
		batchRaw, err := json.Marshal(batch)
		if err != nil {
			return nil, fmt.Errorf("datastore: encoding manifest: %w", err)
		}
		mf.Write(batchRaw)
		mf.WriteByte('\n')
		stored.segs = append(stored.segs, d.lazySeg(ds.Owner, ds.Name, seg, b.Rows(), ds.Cols))
	}
	if err := os.WriteFile(filepath.Join(tmp, manifestName), []byte(mf.String()), 0o600); err != nil {
		return nil, fmt.Errorf("datastore: writing manifest: %w", err)
	}
	final := d.datasetDir(ds.Owner, ds.Name)
	// The index (under the caller's shard lock) says the name is free, so
	// anything still on disk is an unrecoverable leftover — a dataset
	// whose manifest header was unreadable at open. Reclaim the name
	// rather than failing the rename with ENOTEMPTY forever.
	if err := os.RemoveAll(final); err != nil {
		return nil, fmt.Errorf("datastore: reclaiming %s: %w", final, err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return nil, fmt.Errorf("datastore: committing %s: %w", final, err)
	}
	// Write-through: the ingested blocks are hot by definition (a protect
	// or evaluate job typically follows the upload immediately).
	for i := range ds.segs {
		b, _ := ds.segs[i].get()
		d.cache.Add(cacheKey(ds.Owner, ds.Name, fmt.Sprintf("seg-%06d.dat", i+1)), b)
	}
	return stored, nil
}

// Get implements Store.
func (d *Dir) Get(owner, name string) (*Dataset, error) {
	sh := d.shard(owner)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	ds, ok := sh.owners[owner][name]
	if !ok {
		return nil, fmt.Errorf("%w: %s/%s", ErrNotFound, owner, name)
	}
	return ds, nil
}

// List implements Store.
func (d *Dir) List(owner string) ([]Meta, error) {
	sh := d.shard(owner)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	sets := sh.owners[owner]
	out := make([]Meta, 0, len(sets))
	for _, ds := range sets {
		out = append(out, ds.Meta)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out, nil
}

// Delete implements Store: the files go first so a crash can only leave
// an orphaned directory behind, never an index entry without backing
// data; the cache entries go last, after nothing can re-admit them.
func (d *Dir) Delete(owner, name string) error {
	sh := d.shard(owner)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.owners[owner][name]; !ok {
		return fmt.Errorf("%w: %s/%s", ErrNotFound, owner, name)
	}
	if err := os.RemoveAll(d.datasetDir(owner, name)); err != nil {
		return fmt.Errorf("datastore: removing %s/%s: %w", owner, name, err)
	}
	if err := sh.deleteLocked(owner, name); err != nil {
		return err
	}
	d.cache.RemovePrefix(owner + "\x00" + name + "\x00")
	return nil
}
