/**
 * @file
 * A small gem5-flavoured statistics package.
 *
 * Statistics belong to a Group (every SimObject is a Group); groups form a
 * tree mirroring the system hierarchy. Each statistic has a name and a
 * description and can be printed or reset through the group tree.
 *
 * Names and descriptions are string literals: a statistic keeps pointers
 * into static storage and never copies them. Groups link their statistics
 * and child groups in intrusive lists, so registering or destroying either
 * allocates nothing and unlinking a group is O(1). A dump appends every
 * line to one buffer and writes it to the stream in large chunks.
 */

#ifndef ULP_SIM_STATS_HH
#define ULP_SIM_STATS_HH

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <ostream>
#include <string>
#include <string_view>

namespace ulp::sim::stats {

class Dump;
class Group;

/**
 * A string literal, checked at compile time. The only way to name or
 * describe a statistic: passing a std::string or a runtime pointer does
 * not compile, so the text always outlives the statistic.
 */
class Literal
{
  public:
    template <std::size_t N>
    consteval Literal(const char (&text)[N])
        : _text(text), _size(static_cast<std::uint16_t>(
                           std::char_traits<char>::length(text)))
    {
        static_assert(N <= 0x10000, "statistic text over 65535 characters");
    }

    constexpr std::string_view view() const { return {_text, _size}; }

  private:
    const char *_text;
    std::uint16_t _size;
};

/** Base of a named, described statistic; a link in its group's list. */
class Info
{
  public:
    Info(const Info &) = delete;
    Info &operator=(const Info &) = delete;

    std::string_view name() const { return {_name, _nameSize}; }
    std::string_view desc() const { return {_desc, _descSize}; }

  protected:
    /** Stands in for virtual dispatch: print, reset and merge switch on it. */
    enum class Kind : std::uint8_t { Scalar, Formula, Distribution };

    Info(Group *parent, Literal name, Literal desc, Kind kind);
    Kind kind() const { return _kind; }

  private:
    friend class Dump;
    friend class Group;

    const char *_name;
    const char *_desc;
    Info *_next = nullptr;
    std::uint16_t _nameSize;
    std::uint16_t _descSize;
    Kind _kind;
};

/** A simple accumulating scalar (counter or gauge). */
class Scalar : public Info
{
  public:
    Scalar(Group *parent, Literal name, Literal desc)
        : Info(parent, name, desc, Kind::Scalar)
    {}

    Scalar &operator=(double v) { _value = v; return *this; }
    Scalar &operator+=(double v) { _value += v; return *this; }
    Scalar &operator-=(double v) { _value -= v; return *this; }
    Scalar &operator++() { _value += 1.0; return *this; }
    double value() const { return _value; }
    operator double() const { return _value; }

    void reset() { _value = 0.0; }

  private:
    double _value = 0.0;
};

/** A scalar computed on demand from other statistics. */
class Formula : public Info
{
  public:
    Formula(Group *parent, Literal name, Literal desc,
            std::function<double()> fn)
        : Info(parent, name, desc, Kind::Formula), fn(std::move(fn))
    {}

    double value() const { return fn ? fn() : 0.0; }

  private:
    std::function<double()> fn;
};

/** Running min/max/mean/stddev over sampled values. */
class Distribution : public Info
{
  public:
    Distribution(Group *parent, Literal name, Literal desc)
        : Info(parent, name, desc, Kind::Distribution)
    {}

    void
    sample(double v)
    {
        ++_count;
        _sum += v;
        _sumSq += v * v;
        _min = std::min(_min, v);
        _max = std::max(_max, v);
    }

    /** Fold another distribution's samples into this one. */
    void
    merge(const Distribution &other)
    {
        _count += other._count;
        _sum += other._sum;
        _sumSq += other._sumSq;
        _min = std::min(_min, other._min);
        _max = std::max(_max, other._max);
    }

    std::uint64_t count() const { return _count; }
    double sum() const { return _sum; }
    double mean() const { return _count ? _sum / _count : 0.0; }
    double min() const { return _count ? _min : 0.0; }
    double max() const { return _count ? _max : 0.0; }

    double
    stddev() const
    {
        if (_count < 2)
            return 0.0;
        double m = mean();
        double var = (_sumSq - _count * m * m) / (_count - 1);
        return var > 0.0 ? std::sqrt(var) : 0.0;
    }

    void
    reset()
    {
        _count = 0;
        _sum = _sumSq = 0.0;
        _min = std::numeric_limits<double>::infinity();
        _max = -std::numeric_limits<double>::infinity();
    }

  private:
    std::uint64_t _count = 0;
    double _sum = 0.0;
    double _sumSq = 0.0;
    double _min = std::numeric_limits<double>::infinity();
    double _max = -std::numeric_limits<double>::infinity();
};

/**
 * A node in the statistics tree. Groups own neither their child groups nor
 * their statistics; both typically live as members of SimObjects. A group
 * that dies unlinks itself from its parent and orphans its children.
 */
class Group
{
  public:
    Group() = default;
    explicit Group(Group *parent, std::string name = "");
    virtual ~Group();

    Group(const Group &) = delete;
    Group &operator=(const Group &) = delete;

    const std::string &groupName() const { return _groupName; }

    /** Depth-first print of this group's stats and all children. */
    void printStats(std::ostream &os) const;

    /** Depth-first reset. */
    void resetStats();

    /** Find a statistic by name in this group only; nullptr if absent. */
    Info *findStat(std::string_view name) const;

    /** Find a direct child group by name; nullptr if absent. */
    Group *findChild(std::string_view name) const;

    /**
     * Fold @p other into this group: same-named Scalars accumulate,
     * same-named Distributions merge their sample sets, and same-named
     * child groups merge recursively. Stats present only on one side are
     * left alone; Formulas recompute from their merged inputs. Used by the
     * parallel kernel to combine per-shard stat trees into one report.
     */
    void mergeFrom(const Group &other);

  private:
    friend class Dump;
    friend class Info;

    std::string _groupName;
    Group *_parent = nullptr;
    Info *_firstStat = nullptr;
    Info *_lastStat = nullptr;
    Group *_firstChild = nullptr;
    Group *_lastChild = nullptr;
    Group *_prevSibling = nullptr;
    Group *_nextSibling = nullptr;
};

/**
 * One stats dump. Lines are appended to a buffer that goes to the stream
 * in chunks of at least 64 KiB, and the rest when the dump is destroyed.
 * Each line is "prefix.name  value  # desc": the full name left-aligned
 * in 44 columns, the value as printf's "%g" right-aligned in 16.
 */
class Dump
{
  public:
    explicit Dump(std::ostream &os);
    ~Dump();

    Dump(const Dump &) = delete;
    Dump &operator=(const Dump &) = delete;

    /** Append @p group's stats and all its children's, depth first. */
    void group(const Group &group);

    /** Append one line for the statistic "prefix.name<suffix>". */
    void line(std::string_view prefix, std::string_view name,
              std::string_view suffix, double value, std::string_view desc);

  private:
    void stat(const Info &info);
    void flush();

    std::ostream &os;
    std::string buf;
    /** Dotted name of the group being printed. */
    std::string prefix;
};

} // namespace ulp::sim::stats

#endif // ULP_SIM_STATS_HH
