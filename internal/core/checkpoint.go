package core

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"

	"github.com/plasma-hpc/dsmcpic/internal/particle"
	"github.com/plasma-hpc/dsmcpic/internal/simmpi"
)

// Checkpoint captures the world state of a running simulation: the step
// index, the current cell ownership, every particle, and the nodal
// potential. Restarting from a checkpoint resumes the physics (particle
// positions/velocities/species, field) exactly; the per-rank RNG streams
// restart from the configured seed, so a resumed run is statistically —
// not bitwise — identical to an uninterrupted one.
type Checkpoint struct {
	Step      int
	Owner     []int32
	Particles *particle.Store
	Phi       []float64
}

// CaptureCheckpoint gathers the world state to rank 0 (other ranks return
// nil). Call it from an OnStep probe; it is collective.
//
// The gather runs as explicit point-to-point traffic on the checkpoint
// subsystem's own registry tag (simmpi.TagCheckpointGather) rather than
// through the generic Gatherv: checkpoint payloads can never cross-match
// a concurrent collective's internal rounds, and the traffic counters
// attribute the bytes to their own phase instead of the caller's.
func CaptureCheckpoint(s *Solver, step int) *Checkpoint {
	s.Comm.SetPhase(CompCheckpoint)
	defer s.Comm.SetPhase("")
	// Owner-local Poisson keeps phi fresh only at owned + consumer nodes;
	// the checkpointed potential must be the full vector, so replicate it
	// on demand (a no-op gather in replicated mode, which keeps phi
	// replicated after every solve). Collective: all ranks participate.
	s.dist.GatherPhi(s.Comm, s.phi)
	blob := s.St.EncodeAll()
	if s.Comm.Rank() != 0 {
		s.Comm.Send(0, simmpi.TagCheckpointGather, blob)
		return nil
	}
	parts := make([][]byte, s.Comm.Size())
	parts[0] = blob
	for r := 1; r < s.Comm.Size(); r++ {
		// Cancellation point: with many ranks' payloads already delivered,
		// the mailbox hands them over without consulting the canceled flag,
		// so an explicit check bounds how much of the gather a canceled
		// world still performs. CheckCancel is local (flag read, no
		// messages), so rank 0 checking alone cannot desynchronize ranks.
		s.Comm.CheckCancel()
		parts[r] = s.Comm.Recv(r, simmpi.TagCheckpointGather)
	}
	cp := &Checkpoint{
		Step:      step,
		Owner:     append([]int32(nil), s.Bal.CellOwner...),
		Particles: particle.NewStore(0),
		Phi:       append([]float64(nil), s.phi...),
	}
	for _, blob := range parts {
		if _, err := cp.Particles.DecodeAppend(blob); err != nil {
			// Encoded by this process; cannot be malformed.
			panic(err)
		}
	}
	return cp
}

// Checkpoint wire format: a 7-byte magic, one version byte, then the
// versioned body. Version 2 (current) appends a CRC32 (IEEE) footer over
// the body, so torn or bit-flipped files are rejected instead of loaded;
// version 1 (legacy, no CRC) is still readable.
var checkpointMagic = [7]byte{'d', 's', 'm', 'c', 'C', 'K', 'P'}

const (
	checkpointV1 = '1' // legacy: header + body, no integrity footer
	checkpointV2 = '2' // current: header + body + CRC32 footer
)

// Save writes the checkpoint in the current (version 2) binary format:
// magic, version byte, header, owner table, particle records, potential,
// and a CRC32 footer covering everything after the version byte.
func (cp *Checkpoint) Save(w io.Writer) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(checkpointMagic[:]); err != nil {
		return err
	}
	if err := bw.WriteByte(checkpointV2); err != nil {
		return err
	}
	crc := crc32.NewIEEE()
	mw := io.MultiWriter(bw, crc)
	le := binary.LittleEndian
	var hdr [16]byte
	le.PutUint32(hdr[0:], uint32(cp.Step))
	le.PutUint32(hdr[4:], uint32(len(cp.Owner)))
	le.PutUint32(hdr[8:], uint32(cp.Particles.Len()))
	le.PutUint32(hdr[12:], uint32(len(cp.Phi)))
	if _, err := mw.Write(hdr[:]); err != nil {
		return err
	}
	for _, o := range cp.Owner {
		le.PutUint32(hdr[:4], uint32(o))
		if _, err := mw.Write(hdr[:4]); err != nil {
			return err
		}
	}
	if _, err := mw.Write(cp.Particles.EncodeAll()); err != nil {
		return err
	}
	for _, v := range cp.Phi {
		le.PutUint64(hdr[:8], math.Float64bits(v))
		if _, err := mw.Write(hdr[:8]); err != nil {
			return err
		}
	}
	le.PutUint32(hdr[:4], crc.Sum32())
	if _, err := bw.Write(hdr[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadCheckpoint reads a checkpoint written by Save. It accepts format
// versions 1 (legacy) and 2; version 2 bodies are verified against their
// CRC32 footer, and in both versions the stream must be fully consumed —
// truncation and trailing garbage are descriptive errors, not silent
// acceptance.
func LoadCheckpoint(r io.Reader) (*Checkpoint, error) {
	br := bufio.NewReader(r)
	var magic [8]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint truncated reading magic: %w", err)
	}
	if !bytes.Equal(magic[:7], checkpointMagic[:]) {
		return nil, fmt.Errorf("core: bad checkpoint magic %q", magic)
	}
	version := magic[7]
	if version != checkpointV1 && version != checkpointV2 {
		return nil, fmt.Errorf("core: unsupported checkpoint version %q", version)
	}
	// In v2 every body byte also feeds the CRC; the footer is read from
	// the raw stream afterwards.
	crc := crc32.NewIEEE()
	var body io.Reader = br
	if version == checkpointV2 {
		body = io.TeeReader(br, crc)
	}
	le := binary.LittleEndian
	var hdr [16]byte
	if _, err := io.ReadFull(body, hdr[:]); err != nil {
		return nil, fmt.Errorf("core: checkpoint truncated reading header: %w", err)
	}
	cp := &Checkpoint{Step: int(le.Uint32(hdr[0:]))}
	nOwner := int(le.Uint32(hdr[4:]))
	nParticles := int(le.Uint32(hdr[8:]))
	nPhi := int(le.Uint32(hdr[12:]))
	const maxEntities = 1 << 26
	if nOwner < 0 || nOwner > maxEntities || nParticles < 0 || nParticles > maxEntities ||
		nPhi < 0 || nPhi > maxEntities {
		return nil, fmt.Errorf("core: implausible checkpoint sizes (%d owners, %d particles, %d phi)",
			nOwner, nParticles, nPhi)
	}
	// Grow incrementally: a corrupt header must not trigger giant
	// allocations before the body fails to materialize.
	for i := 0; i < nOwner; i++ {
		if _, err := io.ReadFull(body, hdr[:4]); err != nil {
			return nil, fmt.Errorf("core: checkpoint truncated in owner table (%d of %d read): %w", i, nOwner, err)
		}
		cp.Owner = append(cp.Owner, int32(le.Uint32(hdr[:4])))
	}
	cp.Particles = particle.NewStore(0)
	record := make([]byte, particle.EncodedSize(1))
	for i := 0; i < nParticles; i++ {
		if _, err := io.ReadFull(body, record); err != nil {
			return nil, fmt.Errorf("core: checkpoint truncated in particle records (%d of %d read): %w", i, nParticles, err)
		}
		if _, err := cp.Particles.DecodeAppend(record); err != nil {
			return nil, fmt.Errorf("core: checkpoint particle %d malformed: %w", i, err)
		}
	}
	for i := 0; i < nPhi; i++ {
		if _, err := io.ReadFull(body, hdr[:8]); err != nil {
			return nil, fmt.Errorf("core: checkpoint truncated in potential (%d of %d read): %w", i, nPhi, err)
		}
		cp.Phi = append(cp.Phi, math.Float64frombits(le.Uint64(hdr[:8])))
	}
	if version == checkpointV2 {
		want := crc.Sum32()
		if _, err := io.ReadFull(br, hdr[:4]); err != nil {
			return nil, fmt.Errorf("core: checkpoint truncated reading CRC footer: %w", err)
		}
		if got := le.Uint32(hdr[:4]); got != want {
			return nil, fmt.Errorf("core: checkpoint CRC mismatch (stored %08x, computed %08x): file is corrupt", got, want)
		}
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: checkpoint has trailing bytes after the %d declared particles — count inconsistent with byte stream", nParticles)
	}
	return cp, nil
}

// SaveFile atomically writes the checkpoint to path: the bytes land in a
// temporary file in the same directory, are synced, and are renamed over
// path, so a crash mid-write can never leave a half-written checkpoint
// under the published name.
func (cp *Checkpoint) SaveFile(path string) (err error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp-*")
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()
	if err = cp.Save(tmp); err != nil {
		return err
	}
	if err = tmp.Sync(); err != nil {
		return err
	}
	if err = tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadCheckpointFile reads a checkpoint previously written by SaveFile.
func LoadCheckpointFile(path string) (*Checkpoint, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	cp, err := LoadCheckpoint(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return cp, nil
}

// Apply primes a config to resume from the checkpoint: ownership, particle
// population and potential are restored; cfg.Steps should be set to the
// remaining step count by the caller. The restored ownership is validated
// against the mesh and the rank count when the solver consumes it (see
// Prepare).
func (cp *Checkpoint) Apply(cfg *Config) {
	cfg.InitialOwner = cp.Owner
	cfg.InitialParticles = cp.Particles
	cfg.InitialPhi = cp.Phi
}

// distributeInitialState seeds the solver from Config.InitialParticles and
// Config.InitialPhi (if set): each rank keeps the particles whose cells it
// owns.
func (s *Solver) distributeInitialState() {
	if s.Cfg.InitialParticles != nil {
		me := int32(s.Comm.Rank())
		src := s.Cfg.InitialParticles
		for i := 0; i < src.Len(); i++ {
			if s.Bal.CellOwner[src.Cell[i]] == me {
				s.St.Append(src.Get(i))
			}
		}
	}
	if s.Cfg.InitialPhi != nil && len(s.Cfg.InitialPhi) == len(s.phi) {
		copy(s.phi, s.Cfg.InitialPhi)
		s.poisson.ElectricFieldForCells(s.phi, s.ownedFine, s.eField)
	}
}
