package main

import (
	"fmt"
	"os"
	"path/filepath"
	"syscall"
	"time"

	"github.com/memes-pipeline/memes/internal/dataset"
)

// system is one set-up of the program under test: the seeded corpus on
// disk, its snapshot, and a running memeserve.
type system struct {
	dir       string
	ds        *dataset.Dataset // the generated corpus, as written to disk
	corpusDir string
	snap      string
	srv       *proc
	addr      string        // memeserve's address
	build     time.Duration // memepipeline -save wall time
	setup     time.Duration // seed to /v1/readyz
	restarts  int
}

// setUp runs the timed set-up once: generate and write the corpus, build
// the snapshot with memepipeline -save, boot memeserve until it is ready.
func (b *bench) setUp(k int) (*system, error) {
	dir := filepath.Join(b.work, fmt.Sprintf("setup%d", k))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &system{dir: dir, corpusDir: filepath.Join(dir, "corpus"), snap: filepath.Join(dir, "engine.snap")}
	t0 := time.Now()
	ds, err := genCorpus(b.seed)
	if err != nil {
		return nil, fmt.Errorf("generating corpus: %w", err)
	}
	s.ds = ds
	if err := ds.Save(s.corpusDir); err != nil {
		return nil, err
	}
	s.build, err = runTool(b.tool("memepipeline"), []string{"-in", s.corpusDir, "-save", s.snap}, filepath.Join(dir, "memepipeline.log"))
	if err != nil {
		return nil, err
	}
	if err := b.boot(s); err != nil {
		return nil, err
	}
	s.setup = time.Since(t0)
	return s, nil
}

// boot starts memeserve on the system's snapshot and waits until ready.
func (b *bench) boot(s *system) error {
	addr, err := freeAddr()
	if err != nil {
		return err
	}
	args := []string{
		"-load", s.snap, "-in", s.corpusDir, "-addr", addr,
		"-decision-log", filepath.Join(s.dir, fmt.Sprintf("decisions%d.ndjson", s.restarts)),
	}
	p, err := startProc(b.tool("memeserve"), args, filepath.Join(s.dir, fmt.Sprintf("memeserve%d.log", s.restarts)))
	if err != nil {
		return err
	}
	s.restarts++
	if _, err := waitReady(addr, 60*time.Second, p.exited); err != nil {
		p.kill()
		return fmt.Errorf("memeserve: %w", err)
	}
	s.srv, s.addr = p, addr
	return nil
}

// restart stops memeserve with SIGTERM and boots it again on the same
// snapshot, returning the time from exec to ready.
func (b *bench) restart(s *system) (time.Duration, error) {
	if err := s.srv.stop(); err != nil {
		return 0, fmt.Errorf("stopping memeserve: %w", err)
	}
	// Write back the decision log the old process left, so the kernel's
	// writeback does not compete with the timed boot.
	syscall.Sync()
	t0 := time.Now()
	if err := b.boot(s); err != nil {
		return 0, err
	}
	return time.Since(t0), nil
}
