package pipeline

import "fmt"

// The set-associative LRU cache model behind both the instruction and
// the data cache of the machine. The paper's low-end speedups come
// from spills pressuring the D-cache and code size pressuring the
// I-cache; this model supplies both effects.

// CacheConfig describes one cache.
type CacheConfig struct {
	// Size is the total capacity in bytes.
	Size int
	// LineSize is the block size in bytes (power of two).
	LineSize int
	// Assoc is the set associativity.
	Assoc int
	// MissPenalty is the extra cycles charged per miss.
	MissPenalty int
}

// Validate checks the geometry.
func (c CacheConfig) Validate() error {
	if c.Size <= 0 || c.LineSize <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache: non-positive geometry %+v", c)
	}
	if c.LineSize&(c.LineSize-1) != 0 {
		return fmt.Errorf("cache: line size %d not a power of two", c.LineSize)
	}
	if c.Size%(c.LineSize*c.Assoc) != 0 {
		return fmt.Errorf("cache: size %d not divisible by line*assoc", c.Size)
	}
	return nil
}

// CacheStats counts accesses.
type CacheStats struct {
	Accesses uint64
	Misses   uint64
}

// MissRate returns misses/accesses.
func (s CacheStats) MissRate() float64 {
	if s.Accesses == 0 {
		return 0
	}
	return float64(s.Misses) / float64(s.Accesses)
}

// cache is a set-associative LRU cache.
type cache struct {
	cfg    CacheConfig
	sets   int
	lines  []uint64 // tag per way, sets*assoc
	valid  []bool
	lru    []uint64 // last-touch counter per way
	clock  uint64
	Stats  CacheStats
	offBit uint
}

// newCache builds a cache; the configuration must validate.
func newCache(cfg CacheConfig) (*cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	sets := cfg.Size / (cfg.LineSize * cfg.Assoc)
	off := uint(0)
	for (1 << off) < cfg.LineSize {
		off++
	}
	return &cache{
		cfg:    cfg,
		sets:   sets,
		lines:  make([]uint64, sets*cfg.Assoc),
		valid:  make([]bool, sets*cfg.Assoc),
		lru:    make([]uint64, sets*cfg.Assoc),
		offBit: off,
	}, nil
}

// Access touches addr and reports whether it hit. Misses fill the LRU
// way of the set.
func (c *cache) Access(addr uint64) bool {
	c.clock++
	c.Stats.Accesses++
	line := addr >> c.offBit
	set := int(line % uint64(c.sets))
	tag := line / uint64(c.sets)
	base := set * c.cfg.Assoc
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if c.valid[i] && c.lines[i] == tag {
			c.lru[i] = c.clock
			return true
		}
	}
	// Miss: fill an invalid way, or evict the least recently used.
	victim := base
	for w := 0; w < c.cfg.Assoc; w++ {
		i := base + w
		if !c.valid[i] {
			victim = i
			break
		}
		if c.lru[i] < c.lru[victim] {
			victim = i
		}
	}
	c.Stats.Misses++
	c.lines[victim] = tag
	c.valid[victim] = true
	c.lru[victim] = c.clock
	return false
}

// Penalty returns the configured miss penalty.
func (c *cache) Penalty() int { return c.cfg.MissPenalty }

// Reset clears contents and statistics.
func (c *cache) Reset() {
	for i := range c.valid {
		c.valid[i] = false
		c.lru[i] = 0
	}
	c.clock = 0
	c.Stats = CacheStats{}
}
