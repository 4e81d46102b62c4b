package runner

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// cacheFormatVersion salts every key so a change to the on-disk entry
// layout invalidates old caches wholesale instead of misreading them.
const cacheFormatVersion = "1"

// Cache is a content-addressed on-disk result cache. The key is the task's
// canonical spec string; its SHA-256 (salted with a caller-supplied code
// version salt) addresses one JSON file per entry. A cache is safe for
// concurrent use: writes are atomic (temp file + rename) and reads treat
// any unreadable, truncated or mismatched entry as a miss, never an error,
// so a corrupted cache only costs recomputation.
type Cache struct {
	dir  string
	salt string
}

// OpenCache opens (creating if needed) a cache rooted at dir. The salt
// should name the producing code's version — e.g. "sweep-v1" — so results
// computed by incompatible code never collide.
func OpenCache(dir, salt string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("runner: empty cache directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("runner: open cache: %w", err)
	}
	return &Cache{dir: dir, salt: salt}, nil
}

// entry is the on-disk envelope. Key is stored alongside the value so a
// (vanishingly unlikely) hash collision or a foreign file reads as a miss.
type entry struct {
	Key   string          `json:"key"`
	Value json.RawMessage `json:"value"`
}

// Path returns the file a key is stored at.
func (c *Cache) Path(key string) string {
	h := sha256.Sum256([]byte(cacheFormatVersion + "\x00" + c.salt + "\x00" + key))
	return filepath.Join(c.dir, hex.EncodeToString(h[:])+".json")
}

// Get loads the entry for key into v, reporting whether it hit. Every
// failure mode — absent file, truncated or corrupt JSON, key mismatch,
// undecodable value — is a miss.
func (c *Cache) Get(key string, v any) bool {
	data, err := os.ReadFile(c.Path(key))
	if err != nil {
		return false
	}
	var e entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		return false
	}
	return json.Unmarshal(e.Value, v) == nil
}

// Put stores v under key atomically, so concurrent writers and crashed
// runs can never leave a half-written entry behind the final name.
func (c *Cache) Put(key string, v any) error {
	raw, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("runner: cache encode %q: %w", key, err)
	}
	data, err := json.Marshal(entry{Key: key, Value: raw})
	if err != nil {
		return fmt.Errorf("runner: cache encode %q: %w", key, err)
	}
	tmp, err := os.CreateTemp(c.dir, "put-*.tmp")
	if err != nil {
		return fmt.Errorf("runner: cache write %q: %w", key, err)
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %q: %w", key, err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %q: %w", key, err)
	}
	if err := os.Rename(tmp.Name(), c.Path(key)); err != nil {
		os.Remove(tmp.Name())
		return fmt.Errorf("runner: cache write %q: %w", key, err)
	}
	return nil
}
