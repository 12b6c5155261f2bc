package fleet

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"

	"relperf/internal/faultpoint"
)

// WriteSnapshotBytesAtomic persists checkpoint bytes (SnapshotCut) at path
// with full crash safety: the bytes are written to a sibling .tmp file,
// fsync'd, renamed into place, and the parent directory is fsync'd after
// the rename — without the directory sync a crash right after os.Rename
// can still resurface the old checkpoint (or none at all) when the
// directory entry was never made durable. Every failure path removes the
// .tmp file. The snapshot.* faultpoints fire here. Taking bytes rather
// than the store lets a checkpoint capture state and a WAL cut point
// atomically (Store.SnapshotCut) and write the file afterwards, off the
// store's locks.
func WriteSnapshotBytesAtomic(data []byte, path string) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	// One cleanup for every failure exit: close if still open, remove the
	// temp file so a failed checkpoint never litters (or worse, gets
	// mistaken for a fresh one by an operator).
	closed := false
	defer func() {
		if err != nil {
			if !closed {
				f.Close()
			}
			os.Remove(tmp)
		}
	}()
	if err = faultpoint.Hit("snapshot.write"); err != nil {
		return err
	}
	if _, err = f.Write(data); err != nil {
		return err
	}
	if err = faultpoint.Hit("snapshot.sync"); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	closed = true
	if err = faultpoint.Hit("snapshot.rename"); err != nil {
		return err
	}
	if err = os.Rename(tmp, path); err != nil {
		return err
	}
	d, err := os.Open(filepath.Dir(path))
	if err != nil {
		return fmt.Errorf("fleet: opening checkpoint directory: %w", err)
	}
	defer d.Close()
	if err = d.Sync(); err != nil {
		return fmt.Errorf("fleet: syncing checkpoint directory: %w", err)
	}
	return nil
}

// Replicator pushes checkpoints to standby daemons over their
// POST /v1/replica/snapshot endpoint. Store.MergeSnapshot makes that safe
// (validate all, then merge: identical bytes are idempotent, divergent
// bytes refuse loudly), so a failed-over standby serves warm and
// byte-identical, with zero recomputation.
type Replicator struct {
	// URLs are the standby base URLs (e.g. http://standby:8077).
	URLs []string
	// Client is the HTTP client; nil means http.DefaultClient.
	Client *http.Client
	// Logf receives per-standby outcomes; nil discards them.
	Logf func(format string, args ...any)
}

// Push posts one checkpoint — the bytes SnapshotCut produced and the
// daemon just wrote — to every standby. A failed standby is logged and
// does not stop the others; the joined error reports every failure so the
// caller can count a degraded replication round. The replica.push
// faultpoint fires once per standby.
func (r *Replicator) Push(ctx context.Context, checkpoint []byte) error {
	client, logf := r.Client, r.Logf
	if client == nil {
		client = http.DefaultClient
	}
	if logf == nil {
		logf = func(string, ...any) {}
	}
	var errs []error
	for _, url := range r.URLs {
		if err := pushOne(ctx, client, url, checkpoint); err != nil {
			logf("fleet: replica push to %s failed: %v (standby will catch up on the next push)", url, err)
			errs = append(errs, fmt.Errorf("%s: %w", url, err))
			continue
		}
		logf("fleet: replicated checkpoint to %s (%d bytes)", url, len(checkpoint))
	}
	return errors.Join(errs...)
}

// pushOne posts one checkpoint to one standby.
func pushOne(ctx context.Context, client *http.Client, url string, checkpoint []byte) error {
	if err := faultpoint.Hit("replica.push"); err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/replica/snapshot", bytes.NewReader(checkpoint))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/octet-stream")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("standby answered %d: %s", resp.StatusCode, bytes.TrimSpace(body))
	}
	return nil
}
